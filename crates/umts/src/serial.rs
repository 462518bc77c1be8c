//! A simulated serial line between the host and the 3G modem.
//!
//! The real deployment talks to the Option Globetrotter / Huawei E620 cards
//! over a serial TTY (via the `nozomi` / `usbserial` kernel modules). Here
//! the line is an in-memory duplex byte channel with baud-rate pacing: a
//! byte written at `t` becomes readable at the far end no earlier than
//! `t + 10/baud` seconds (8N1 framing: 8 data bits + start + stop), and
//! writes serialize behind each other exactly like a UART shift register.

use std::collections::VecDeque;

use umtslab_sim::time::{Duration, Instant};

/// One direction of the serial line.
#[derive(Debug)]
struct Channel {
    /// Bytes in flight or ready: `(readable_at, byte)`.
    bytes: VecDeque<(Instant, u8)>,
    /// When the shift register frees up.
    next_free: Instant,
}

impl Channel {
    fn new() -> Channel {
        Channel { bytes: VecDeque::new(), next_free: Instant::ZERO }
    }

    fn write(&mut self, now: Instant, data: &[u8], per_byte: Duration) {
        let mut t = self.next_free.max(now);
        for &b in data {
            t += per_byte;
            self.bytes.push_back((t, b));
        }
        self.next_free = t;
    }

    fn read(&mut self, now: Instant) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(&(at, b)) = self.bytes.front() {
            if at <= now {
                out.push(b);
                self.bytes.pop_front();
            } else {
                break;
            }
        }
        out
    }

    fn next_readable(&self) -> Option<Instant> {
        self.bytes.front().map(|&(at, _)| at)
    }
}

/// A full-duplex serial line with two logical ends: the *host* (DTE) and
/// the *modem* (DCE).
#[derive(Debug)]
pub struct SerialLine {
    per_byte: Duration,
    host_to_modem: Channel,
    modem_to_host: Channel,
}

impl SerialLine {
    /// Creates a line running at `baud` bits per second (8N1: 10 baud
    /// periods per byte). A zero baud rate means instantaneous transfer.
    pub fn new(baud: u64) -> SerialLine {
        let per_byte = if baud == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(10_000_000u64.div_ceil(baud))
        };
        SerialLine { per_byte, host_to_modem: Channel::new(), modem_to_host: Channel::new() }
    }

    /// The transfer time of a single byte.
    pub fn per_byte(&self) -> Duration {
        self.per_byte
    }

    /// Host writes bytes toward the modem.
    pub fn host_write(&mut self, now: Instant, data: &[u8]) {
        self.host_to_modem.write(now, data, self.per_byte);
    }

    /// Modem writes bytes toward the host.
    pub fn modem_write(&mut self, now: Instant, data: &[u8]) {
        self.modem_to_host.write(now, data, self.per_byte);
    }

    /// Host reads everything that has arrived by `now`.
    pub fn host_read(&mut self, now: Instant) -> Vec<u8> {
        self.modem_to_host.read(now)
    }

    /// Modem reads everything that has arrived by `now`.
    pub fn modem_read(&mut self, now: Instant) -> Vec<u8> {
        self.host_to_modem.read(now)
    }

    /// The earliest instant at which either end has new data to read.
    pub fn next_activity(&self) -> Option<Instant> {
        match (self.host_to_modem.next_readable(), self.modem_to_host.next_readable()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

/// The longest partial line a [`LineAssembler`] buffers: far above any AT
/// command or response, so a longer run without CR or LF is line noise.
pub const MAX_LINE_LEN: usize = 4096;

/// Accumulates raw serial bytes into CR/LF-terminated text lines, the unit
/// in which AT commands and responses travel.
#[derive(Debug, Default)]
pub struct LineAssembler {
    buf: Vec<u8>,
    /// The partial line overflowed: drop bytes up to the next terminator.
    discarding: bool,
    /// Lines dropped for running past [`MAX_LINE_LEN`].
    pub errors: u64,
}

impl LineAssembler {
    /// Creates an empty assembler.
    pub fn new() -> LineAssembler {
        LineAssembler::default()
    }

    /// Feeds bytes; returns every complete line (terminator stripped,
    /// empty lines skipped). A line longer than [`MAX_LINE_LEN`] is
    /// dropped whole and counted in [`LineAssembler::errors`].
    pub fn feed(&mut self, data: &[u8]) -> Vec<String> {
        let mut lines = Vec::new();
        for &b in data {
            if b == b'\r' || b == b'\n' {
                self.discarding = false;
                if !self.buf.is_empty() {
                    lines.push(String::from_utf8_lossy(&self.buf).into_owned());
                    self.buf.clear();
                }
            } else if self.buf.len() == MAX_LINE_LEN {
                self.buf.clear();
                self.discarding = true;
                self.errors += 1;
            } else if !self.discarding {
                self.buf.push(b);
            }
        }
        lines
    }

    /// Bytes buffered awaiting a terminator.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantaneous_line_transfers_immediately() {
        let mut line = SerialLine::new(0);
        line.host_write(Instant::ZERO, b"AT\r");
        assert_eq!(line.modem_read(Instant::ZERO), b"AT\r");
    }

    #[test]
    fn baud_rate_paces_bytes() {
        // 9600 baud: one byte per ~1042 us.
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"AB");
        assert!(line.modem_read(Instant::from_micros(1000)).is_empty());
        assert_eq!(line.modem_read(Instant::from_micros(1042)), b"A");
        assert_eq!(line.modem_read(Instant::from_micros(2084)), b"B");
    }

    #[test]
    fn writes_serialize_behind_each_other() {
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"A");
        line.host_write(Instant::ZERO, b"B"); // queues behind "A"
        let all = line.modem_read(Instant::from_micros(2084));
        assert_eq!(all, b"AB");
    }

    #[test]
    fn directions_are_independent() {
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"X");
        line.modem_write(Instant::ZERO, b"Y");
        assert_eq!(line.modem_read(Instant::from_millis(2)), b"X");
        assert_eq!(line.host_read(Instant::from_millis(2)), b"Y");
    }

    #[test]
    fn next_activity_reports_earliest_byte() {
        let mut line = SerialLine::new(9600);
        assert_eq!(line.next_activity(), None);
        line.host_write(Instant::ZERO, b"A");
        let at = line.next_activity().unwrap();
        assert_eq!(at, Instant::from_micros(1042));
        line.modem_read(at);
        assert_eq!(line.next_activity(), None);
    }

    #[test]
    fn line_assembler_splits_on_cr_and_lf() {
        let mut asm = LineAssembler::new();
        assert!(asm.feed(b"AT+CRE").is_empty());
        assert_eq!(asm.pending(), 6);
        let lines = asm.feed(b"G?\r\nOK\r");
        assert_eq!(lines, vec!["AT+CREG?".to_string(), "OK".to_string()]);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn line_assembler_drops_an_overlong_line_and_recovers() {
        let mut asm = LineAssembler::new();
        let noise = vec![b'x'; 1 << 20];
        for chunk in noise.chunks(1000) {
            assert!(asm.feed(chunk).is_empty());
            assert!(asm.pending() <= MAX_LINE_LEN);
        }
        assert_eq!(asm.errors, 1);
        let lines = asm.feed(b"still noise\r\nOK\r\n");
        assert_eq!(lines, vec!["OK".to_string()]);
        assert_eq!(asm.errors, 1);
        let longest = vec![b'y'; MAX_LINE_LEN];
        assert_eq!(asm.feed(&[&longest[..], b"\r"].concat()).len(), 1);
        assert_eq!(asm.errors, 1);
    }

    #[test]
    fn line_assembler_skips_blank_lines() {
        let mut asm = LineAssembler::new();
        let lines = asm.feed(b"\r\n\r\nOK\r\n\r\n");
        assert_eq!(lines, vec!["OK".to_string()]);
    }

    #[test]
    fn idle_gap_then_write_transfers_from_now() {
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"A");
        let _ = line.modem_read(Instant::from_secs(1));
        line.host_write(Instant::from_secs(1), b"B");
        assert!(line.modem_read(Instant::from_secs(1)).is_empty());
        assert_eq!(line.modem_read(Instant::from_secs(1) + Duration::from_micros(1042)), b"B");
    }
}
