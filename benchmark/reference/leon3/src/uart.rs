//! APBUART console capture.
//!
//! TSIM mirrors the UART to the host terminal; the robustness harness
//! instead captures it so each test's console output can be attached to
//! its log. A byte budget guards against runaway output from a wedged
//! guest flooding host memory.

/// Captured UART console.
#[derive(Debug, Clone)]
pub struct Uart {
    buffer: String,
    limit: usize,
    /// Bytes dropped once the capture limit was reached.
    pub dropped: u64,
}

impl Default for Uart {
    fn default() -> Self {
        Self::new(64 * 1024)
    }
}

impl Uart {
    /// Creates a console capturing at most `limit` bytes.
    pub fn new(limit: usize) -> Self {
        Uart { buffer: String::new(), limit, dropped: 0 }
    }

    /// Transmits one byte. Non-UTF8 bytes are rendered as `\xNN`.
    pub fn put_byte(&mut self, b: u8) {
        if self.buffer.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        match b {
            b'\n' | b'\r' | b'\t' | 0x20..=0x7E => self.buffer.push(b as char),
            _ => {
                use std::fmt::Write;
                let _ = write!(self.buffer, "\\x{b:02x}");
            }
        }
    }

    /// Transmits a string.
    pub fn put_str(&mut self, s: &str) {
        if flightrec::active() && s.contains("PANIC") {
            // The kernel's panic banner reaches the console as one
            // fragment; stamp it into the flight record. The console has
            // no clock, so the event inherits the last timestamp.
            flightrec::record_timeless(
                flightrec::EventKind::UartPanic,
                flightrec::NO_PARTITION,
                0,
                0,
                0,
            );
        }
        for b in s.bytes() {
            self.put_byte(b);
        }
    }

    /// Transmits formatted text, rendering straight into the capture
    /// buffer. Equivalent to `put_str(&format!(...))` byte for byte, but
    /// without materialising the intermediate `String` — the kernel's
    /// panic/diagnostic paths use this so formatting costs no heap
    /// allocation beyond the capture buffer itself.
    pub fn put_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        struct Sink<'a>(&'a mut Uart);
        impl std::fmt::Write for Sink<'_> {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.put_str(s);
                Ok(())
            }
        }
        let _ = std::fmt::Write::write_fmt(&mut Sink(self), args);
    }

    /// Everything captured so far.
    pub fn captured(&self) -> &str {
        &self.buffer
    }

    /// Consumes the console, handing the capture buffer to the caller
    /// without copying it.
    pub fn into_captured(self) -> String {
        self.buffer
    }

    /// Clears the capture (between tests).
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.dropped = 0;
    }

    /// Restores to `src`'s state in place, reusing the capture buffer's
    /// allocation (part of the campaign executor's per-test state reset).
    pub fn restore_from(&mut self, src: &Uart) {
        self.buffer.clone_from(&src.buffer);
        self.limit = src.limit;
        self.dropped = src.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_text() {
        let mut u = Uart::default();
        u.put_str("XM 3.x booting\n");
        assert_eq!(u.captured(), "XM 3.x booting\n");
    }

    #[test]
    fn escapes_binary() {
        let mut u = Uart::default();
        u.put_byte(0x00);
        u.put_byte(0xFF);
        assert_eq!(u.captured(), "\\x00\\xff");
    }

    #[test]
    fn enforces_limit() {
        let mut u = Uart::new(4);
        u.put_str("abcdefgh");
        assert_eq!(u.captured(), "abcd");
        assert_eq!(u.dropped, 4);
    }

    #[test]
    fn put_fmt_matches_put_str_of_format() {
        let mut a = Uart::new(16);
        let mut b = Uart::new(16);
        a.put_fmt(format_args!("panic: {} at {}\n", "storm\x01", 42));
        b.put_str(&format!("panic: {} at {}\n", "storm\x01", 42));
        assert_eq!(a.captured(), b.captured());
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn clear_resets() {
        let mut u = Uart::new(4);
        u.put_str("abcdef");
        u.clear();
        assert_eq!(u.captured(), "");
        assert_eq!(u.dropped, 0);
        u.put_str("xy");
        assert_eq!(u.captured(), "xy");
    }
}
