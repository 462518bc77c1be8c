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

/// True for a byte that ends something at its reader: the PPP flag that
/// closes a frame, or the CR or LF that closes an AT line.
fn is_mark(b: u8) -> bool {
    b == 0x7E || b == b'\r' || b == b'\n'
}

/// One direction of the serial line.
#[derive(Debug)]
struct Channel {
    /// Bytes in flight or ready: `(readable_at, byte)`.
    bytes: VecDeque<(Instant, u8)>,
    /// Arrival instants of the queued mark bytes (see [`is_mark`]).
    marks: VecDeque<Instant>,
    /// When the shift register frees up.
    next_free: Instant,
}

impl Channel {
    fn new() -> Channel {
        Channel { bytes: VecDeque::new(), marks: VecDeque::new(), next_free: Instant::ZERO }
    }

    fn write(&mut self, now: Instant, data: &[u8], per_byte: Duration) {
        let mut t = self.next_free.max(now);
        for &b in data {
            t += per_byte;
            self.bytes.push_back((t, b));
            if is_mark(b) {
                self.marks.push_back(t);
            }
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
        while self.marks.front().is_some_and(|&at| at <= now) {
            self.marks.pop_front();
        }
        out
    }

    fn next_readable(&self) -> Option<Instant> {
        self.bytes.front().map(|&(at, _)| at)
    }

    fn next_mark(&self) -> Option<Instant> {
        self.marks.front().copied().or_else(|| self.bytes.back().map(|&(at, _)| at))
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
        min_opt(self.host_to_modem.next_readable(), self.modem_to_host.next_readable())
    }

    /// The earliest instant at which reading either end can change
    /// something: the arrival of the first queued byte that ends a PPP
    /// frame or an AT line at its reader (`0x7E`, CR or LF). A direction
    /// with no such byte queued names its last queued byte, so no byte
    /// waits past the end of its write. Reading earlier only feeds a
    /// deframer or a line assembler a partial unit they buffer.
    pub fn next_mark(&self) -> Option<Instant> {
        min_opt(self.host_to_modem.next_mark(), self.modem_to_host.next_mark())
    }
}

/// The earlier of two optional instants.
pub(crate) fn min_opt(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
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

    /// The arrival instant of the `n`-th byte (1-based) of a write at zero
    /// on an idle 9600-baud line.
    fn byte_at(n: u64) -> Instant {
        Instant::from_micros(1042 * n)
    }

    #[test]
    fn next_mark_names_a_flag_a_cr_or_an_lf() {
        for (data, mark) in [(&b"AT\rOK"[..], 3), (b"\xff\x03\xc0\x21\x7e\x01", 5), (b"OK\nAT", 3)]
        {
            let mut line = SerialLine::new(9600);
            line.host_write(Instant::ZERO, data);
            assert_eq!(line.next_mark(), Some(byte_at(mark)), "{data:?}");
            assert_eq!(line.next_activity(), Some(byte_at(1)), "{data:?}");
        }
        // Either direction: the earlier mark wins.
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"ATZ\r");
        line.modem_write(Instant::ZERO, b"\r\nOK");
        assert_eq!(line.next_mark(), Some(byte_at(1)));
        line.host_read(byte_at(2));
        assert_eq!(
            line.next_mark(),
            Some(byte_at(4)),
            "the host's CR and the last byte of the modem's OK"
        );
    }

    #[test]
    fn next_mark_falls_back_to_the_last_byte_of_an_unmarked_write() {
        let mut line = SerialLine::new(9600);
        assert_eq!(line.next_mark(), None);
        line.modem_write(Instant::ZERO, b"CONN");
        assert_eq!(line.next_mark(), Some(byte_at(4)));
        assert_eq!(line.next_activity(), Some(byte_at(1)));
        assert_eq!(line.host_read(byte_at(4)), b"CONN");
        assert_eq!(line.next_mark(), None);
    }

    #[test]
    fn next_mark_moves_on_after_a_partial_read() {
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"AB\rCD\nEF");
        assert_eq!(line.modem_read(byte_at(2)), b"AB");
        assert_eq!(line.next_activity(), Some(byte_at(3)));
        assert_eq!(line.next_mark(), Some(byte_at(3)));
        assert_eq!(line.modem_read(byte_at(3)), b"\r");
        assert_eq!(line.next_mark(), Some(byte_at(6)));
        assert_eq!(line.modem_read(byte_at(7)), b"CD\nE");
        assert_eq!(line.next_activity(), Some(byte_at(8)));
        assert_eq!(line.next_mark(), Some(byte_at(8)), "no mark left: the last byte");
        assert_eq!(line.modem_read(byte_at(8)), b"F");
        assert_eq!((line.next_activity(), line.next_mark()), (None, None));
    }

    #[test]
    fn next_mark_spans_back_to_back_writes() {
        // The first write has no mark: the second write's CR is next.
        let mut line = SerialLine::new(9600);
        line.host_write(Instant::ZERO, b"AT+C");
        line.host_write(Instant::ZERO, b"GMI\r");
        assert_eq!(line.next_mark(), Some(byte_at(8)));
        // A mark in the first write; the second write's last byte after it.
        let mut line = SerialLine::new(9600);
        line.modem_write(Instant::ZERO, b"\x7e\x21");
        line.modem_write(Instant::from_micros(500), b"\x45\x00");
        assert_eq!(line.next_mark(), Some(byte_at(1)));
        assert_eq!(line.host_read(byte_at(1)), b"\x7e");
        assert_eq!(line.next_mark(), Some(byte_at(4)));
    }

    #[test]
    fn next_mark_on_an_instantaneous_line() {
        let mut line = SerialLine::new(0);
        line.host_write(Instant::from_secs(1), b"ABC");
        assert_eq!(line.next_mark(), Some(Instant::from_secs(1)));
        line.modem_write(Instant::from_secs(1), b"OK\r\n");
        assert_eq!(line.next_mark(), Some(Instant::from_secs(1)));
        assert_eq!(line.modem_read(Instant::from_secs(1)), b"ABC");
        assert_eq!(line.host_read(Instant::from_secs(1)), b"OK\r\n");
        assert_eq!(line.next_mark(), None);
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
