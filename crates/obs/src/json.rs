//! The one JSON writer. Every document the stack prints (`METRICS`,
//! `/varz`, `/trace`, `SCRUB`, netbench's report) is built here, so commas,
//! nesting, string escaping and number formatting are decided in one place.
//! Objects and arrays are closures: a document is balanced by construction.

use std::fmt::{self, Write as _};

/// One JSON object whose members `body` writes, as a string.
pub fn object(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer { out: String::new(), comma: false };
    w.object(body);
    w.out
}

/// Writes one JSON document into a `String`; inside an object each value
/// follows a [`key`](Writer::key).
pub struct Writer {
    out: String,
    /// The open object or array holds an element: the next one needs a comma.
    comma: bool,
}

impl Writer {
    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k).out.push(':');
        self.comma = false;
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', body, '}')
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', body, ']')
    }

    /// Writes `s` as a string: `"` and `\` get a backslash, every control
    /// character becomes `\u00XX`, and all else passes through as UTF-8.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.scalar(format_args!("\""));
        for c in s.chars() {
            let _ = match c {
                '"' | '\\' => write!(self.out, "\\{c}"),
                c if c.is_control() => write!(self.out, "\\u{:04x}", c as u32),
                c => write!(self.out, "{c}"),
            };
        }
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    /// Writes `v` with `decimals` digits after the point; a non-finite
    /// value, which JSON cannot spell, becomes `null`.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.scalar(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.scalar(format_args!("null"))
    }

    fn scalar(&mut self, v: fmt::Arguments) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        let _ = self.out.write_fmt(v);
        self.comma = true;
        self
    }

    fn nest(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.scalar(format_args!("{open}")).comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::object;

    fn string(s: &str) -> String {
        let doc = object(|w| {
            w.key("s").str(s);
        });
        doc["{\"s\":".len()..doc.len() - 1].to_string()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(string(""), r#""""#);
        assert_eq!(string(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(string(r"C:\pool\dir"), r#""C:\\pool\\dir""#);
        assert_eq!(string("line\nbreak"), r#""line\u000abreak""#);
        assert_eq!(string("\u{1}\t\u{7f}"), r#""\u0001\u0009\u007f""#);
        assert_eq!(string("pool «ünï» 池"), "\"pool «ünï» 池\"");
    }

    #[test]
    fn commas_separate_members_and_elements_at_every_depth() {
        let doc = object(|w| {
            w.key("a").object(|_| {}).key("b").array(|w| {
                w.u64(1).array(|_| {}).object(|w| {
                    w.key("c").null();
                });
            });
            w.key("d").f64(f64::NAN, 1).key("e").f64(-f64::INFINITY, 1).key("f").f64(2.75, 1);
        });
        assert_eq!(
            doc,
            r#"{"a":{},"b":[1,[],{"c":null}],"d":null,"e":null,"f":2.8}"#
        );
    }
}
