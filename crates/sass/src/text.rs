//! Assembly text, gathered on the stack and handed to the formatter a
//! line at a time: the disassembler prints a dozen pieces per
//! instruction, and a formatter call per piece (or a `format_args!` per
//! number) costs more than the characters.

use std::fmt;

/// Text bound for a formatter, held back until [`Text::flush`] (or until
/// the buffer fills).
pub(crate) struct Text<'a, 'f> {
    f: &'a mut fmt::Formatter<'f>,
    buf: [u8; 128],
    len: usize,
}

impl<'a, 'f> Text<'a, 'f> {
    pub(crate) fn new(f: &'a mut fmt::Formatter<'f>) -> Text<'a, 'f> {
        Text {
            f,
            buf: [0; 128],
            len: 0,
        }
    }

    /// Write to `f` what `write` puts into a fresh text.
    pub(crate) fn show(
        f: &mut fmt::Formatter<'_>,
        write: impl FnOnce(&mut Text<'_, '_>) -> fmt::Result,
    ) -> fmt::Result {
        let mut text = Text::new(f);
        write(&mut text)?;
        text.flush()
    }

    pub(crate) fn str(&mut self, s: &str) -> fmt::Result {
        if self.len + s.len() > self.buf.len() {
            self.flush()?;
            if s.len() > self.buf.len() {
                return self.f.write_str(s);
            }
        }
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }

    /// `v` in base `RADIX` (10 or 16, lowercase), zero-padded to at least
    /// `min_digits` digits: what `{v:0min_digits$}` or `{v:0min_digits$x}`
    /// print.
    pub(crate) fn digits<const RADIX: u64>(&mut self, v: u64, min_digits: usize) -> fmt::Result {
        let mut count = 1;
        while RADIX.checked_pow(count).is_some_and(|p| p <= v) {
            count += 1;
        }
        let count = (count as usize).max(min_digits).min(self.buf.len());
        if self.len + count > self.buf.len() {
            self.flush()?;
        }
        let mut rest = v;
        for digit in self.buf[self.len..self.len + count].iter_mut().rev() {
            *digit = b"0123456789abcdef"[(rest % RADIX) as usize];
            rest /= RADIX;
        }
        self.len += count;
        Ok(())
    }

    /// `v` the way `{v:#x}` prints it.
    pub(crate) fn hex(&mut self, v: u64) -> fmt::Result {
        self.str("0x")?;
        self.digits::<16>(v, 1)
    }

    /// Hand what is held to the formatter.
    pub(crate) fn flush(&mut self) -> fmt::Result {
        let held = std::str::from_utf8(&self.buf[..self.len]).map_err(|_| fmt::Error)?;
        self.len = 0;
        self.f.write_str(held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A number through [`Text::digits`] in base 10 or 16 with a minimum
    /// width, or through [`Text::hex`] when the base is 0.
    struct Number(u64, u64, usize);

    impl fmt::Display for Number {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            Text::show(f, |t| match self.1 {
                0 => t.hex(self.0),
                10 => t.digits::<10>(self.0, self.2),
                _ => t.digits::<16>(self.0, self.2),
            })
        }
    }

    #[test]
    fn numbers_match_the_standard_formats() {
        for v in [0u64, 1, 9, 10, 15, 16, 255, 0x1234, 0xFFFF_FFFF, u64::MAX] {
            assert_eq!(Number(v, 10, 1).to_string(), format!("{v}"));
            assert_eq!(Number(v, 16, 1).to_string(), format!("{v:x}"));
            assert_eq!(Number(v, 16, 2).to_string(), format!("{v:02x}"));
            assert_eq!(Number(v, 16, 4).to_string(), format!("{v:04x}"));
            assert_eq!(Number(v, 0, 0).to_string(), format!("{v:#x}"));
        }
    }

    /// Text longer than the buffer.
    struct Long(usize);

    impl fmt::Display for Long {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            Text::show(f, |t| {
                for i in 0..self.0 {
                    t.str(if i % 2 == 0 { "ab" } else { "c" })?;
                }
                t.str(&"x".repeat(300))
            })
        }
    }

    #[test]
    fn text_past_the_buffer_arrives_whole_and_in_order() {
        let want = "abc".repeat(100) + "ab" + &"x".repeat(300);
        assert_eq!(Long(201).to_string(), want);
    }
}
