//! A tiny regex-subset string generator backing `&str` strategies.
//!
//! Supported syntax (the subset this workspace's suites use):
//!
//! * literal characters,
//! * character classes `[...]` with ranges (`a-z`), escapes
//!   (`\[`, `\]`, `\\`, `\n`, `\t`) and literal members,
//! * `\PC` — "not a control character" (generated as printable ASCII
//!   plus a few spacers),
//! * `.` — any printable character,
//! * quantifiers `*`, `+`, `?`, `{n}`, `{n,m}` applying to the
//!   preceding atom (unbounded repetition is capped at 32).

use crate::test_runner::TestRng;

/// Cap for `*` / `+` repetition counts.
const STAR_CAP: u32 = 32;

#[derive(Clone, Debug)]
enum Atom {
    /// One of an explicit character set.
    Class(Vec<char>),
    /// A specific character.
    Lit(char),
    /// Any non-control character (`\PC`, `.`).
    Printable,
}

#[derive(Clone, Copy, Debug)]
struct Quant {
    min: u32,
    max: u32,
}

/// Generates a string matching `pattern`.
pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
    let atoms = parse(pattern);
    let mut out = String::new();
    for (atom, q) in &atoms {
        let n = rng.range_inclusive(u64::from(q.min), u64::from(q.max)) as u32;
        for _ in 0..n {
            out.push(pick(atom, rng));
        }
    }
    out
}

fn pick(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Lit(c) => *c,
        Atom::Class(set) => set[rng.below(set.len() as u64) as usize],
        Atom::Printable => {
            // Mostly printable ASCII with occasional space-ish chars;
            // never a control character.
            let v = rng.below(96) as u8;
            (0x20 + v.min(94)) as char
        }
    }
}

fn parse(pattern: &str) -> Vec<(Atom, Quant)> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    let mut out: Vec<(Atom, Quant)> = Vec::new();
    while i < chars.len() {
        let atom = match chars[i] {
            '[' => {
                let (set, next) = parse_class(&chars, i + 1, pattern);
                i = next;
                Atom::Class(set)
            }
            '\\' => {
                i += 1;
                let c = *chars.get(i).unwrap_or_else(|| bad(pattern, "trailing backslash"));
                i += 1;
                match c {
                    'P' | 'p' => {
                        // Unicode category escape; consume the category
                        // letter. Only \PC ("not control") is supported.
                        i += 1;
                        Atom::Printable
                    }
                    'n' => Atom::Lit('\n'),
                    't' => Atom::Lit('\t'),
                    other => Atom::Lit(other),
                }
            }
            '.' => {
                i += 1;
                Atom::Printable
            }
            c => {
                i += 1;
                Atom::Lit(c)
            }
        };
        // Optional quantifier.
        let quant = match chars.get(i) {
            Some('*') => {
                i += 1;
                Quant { min: 0, max: STAR_CAP }
            }
            Some('+') => {
                i += 1;
                Quant { min: 1, max: STAR_CAP }
            }
            Some('?') => {
                i += 1;
                Quant { min: 0, max: 1 }
            }
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| bad(pattern, "unclosed {"));
                let body: String = chars[i + 1..i + close].iter().collect();
                i += close + 1;
                let (min, max) = match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().unwrap_or_else(|_| bad(pattern, "bad {n,m}")),
                        hi.trim().parse().unwrap_or_else(|_| bad(pattern, "bad {n,m}")),
                    ),
                    None => {
                        let n = body.trim().parse().unwrap_or_else(|_| bad(pattern, "bad {n}"));
                        (n, n)
                    }
                };
                Quant { min, max }
            }
            _ => Quant { min: 1, max: 1 },
        };
        out.push((atom, quant));
    }
    out
}

fn parse_class(chars: &[char], mut i: usize, pattern: &str) -> (Vec<char>, usize) {
    let mut set = Vec::new();
    loop {
        let c = *chars.get(i).unwrap_or_else(|| bad(pattern, "unclosed ["));
        match c {
            ']' => return (set, i + 1),
            '\\' => {
                i += 1;
                let e = *chars.get(i).unwrap_or_else(|| bad(pattern, "trailing backslash"));
                set.push(match e {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 1;
            }
            lo => {
                // Range `lo-hi` (when a `-` is sandwiched), else literal.
                if chars.get(i + 1) == Some(&'-') && chars.get(i + 2).is_some_and(|&h| h != ']') {
                    let hi = chars[i + 2];
                    assert!(lo <= hi, "bad class range in {pattern}");
                    for v in lo as u32..=hi as u32 {
                        if let Some(ch) = char::from_u32(v) {
                            set.push(ch);
                        }
                    }
                    i += 3;
                } else {
                    set.push(lo);
                    i += 1;
                }
            }
        }
    }
}

fn bad(pattern: &str, what: &str) -> ! {
    panic!("unsupported regex strategy {pattern:?}: {what}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::for_case("", 42)
    }

    #[test]
    fn ident_pattern_shape() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("[a-z][a-z0-9_]{0,8}", &mut r);
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            let mut cs = s.chars();
            assert!(cs.next().unwrap().is_ascii_lowercase());
            assert!(cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn not_control_never_emits_control() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("\\PC*", &mut r);
            assert!(s.chars().all(|c| !c.is_control()), "{s:?}");
        }
    }

    #[test]
    fn class_with_escapes_and_counts() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("[a-z0-9_@:;,\\[\\]{}()'.#*=<> \n]{0,200}", &mut r);
            assert!(s.len() <= 200);
            assert!(s
                .chars()
                .all(|c| "abcdefghijklmnopqrstuvwxyz0123456789_@:;,[]{}()'.#*=<> \n".contains(c)));
        }
    }

    #[test]
    fn exact_and_bounded_quantifiers() {
        let mut r = rng();
        assert_eq!(generate("a{3}", &mut r), "aaa");
        for _ in 0..50 {
            let s = generate("x{2,4}", &mut r);
            assert!((2..=4).contains(&s.len()));
            let o = generate("b?", &mut r);
            assert!(o.len() <= 1);
        }
    }
}
