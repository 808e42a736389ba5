//! Minimal hand-rolled JSON writing helpers.
//!
//! The obs dump format is flat maps of statically-named numbers plus short
//! journal strings; hand-rolling keeps this crate dependency-free and the
//! output byte-stable — no serializer version can ever perturb the
//! determinism fixtures.

/// Appends `s` JSON-escaped (quotes not included).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

/// Appends `indent` levels of two-space indentation.
pub fn indent_into(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `"key": ` at the given indent.
pub fn key_into(out: &mut String, indent: usize, key: &str) {
    indent_into(out, indent);
    out.push('"');
    escape_into(out, key);
    out.push_str("\": ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn key_writes_indent_and_colon() {
        let mut s = String::new();
        key_into(&mut s, 2, "counters");
        assert_eq!(s, "    \"counters\": ");
    }
}
