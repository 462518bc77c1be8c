//! Seeded hostile byte streams for the AT layer's robustness tests.
//!
//! A stream mixes line noise (CR/LF bursts, NULs, bytes that are not
//! UTF-8, lines past [`MAX_LINE_LEN`]) with malformed variants of the
//! dialogue itself (`AT+CGDCONT=` missing fields, `+CREG: 0,` followed
//! by junk, `+++` outside data mode) and the well-formed commands and
//! responses that move the modem and the dialer between states.

use umtslab_sim::rng::SimRng;

use crate::serial::MAX_LINE_LEN;

/// Fragments that drive state changes or probe the parsers' edges.
const FRAGMENTS: [&[u8]; 24] = [
    b"AT\r",
    b"ATZ\r",
    b"ATH\r",
    b"ATD*99***1#\r",
    b"AT+CREG?\r",
    b"AT+CPIN?\r",
    b"AT+CGDCONT=\r",
    b"AT+CGDCONT=1\r",
    b"AT+CGDCONT=1,\r",
    b"AT+CGDCONT=,,\r",
    b"AT+CGDCONT=1,\"IP\"\r",
    b"AT+CGDCONT=1,\"IP\",\"internet\"\r",
    b"+++\r",
    b"+++",
    b"OK\r\n",
    b"ERROR\r\n",
    b"CONNECT\r\n",
    b"NO CARRIER\r\n",
    b"BUSY\r\n",
    b"+CPIN: READY\r\n",
    b"+CPIN: \r\n",
    b"+CREG: 0,1\r\n",
    b"+CREG: 0,",
    b"+CREG:",
];

/// A hostile stream of `pieces` fragments drawn from `rng`.
pub(crate) fn hostile_stream(rng: &mut SimRng, pieces: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..pieces {
        let len = rng.uniform_u64(1, 24) as usize;
        match rng.uniform_u64(0, 7) {
            0 => out.extend((0..len).map(|_| if rng.chance(0.5) { b'\r' } else { b'\n' })),
            1 => out.extend(std::iter::repeat(0).take(len)),
            2 => out.extend((0..len).map(|_| rng.uniform_u64(0x80, 0xff) as u8)),
            3 => {
                // Around the cap: exactly at it, or past it by a little or
                // by a whole second line.
                let over = [0, 1, rng.uniform_u64(2, MAX_LINE_LEN as u64) as usize];
                let n = MAX_LINE_LEN + over[rng.uniform_u64(0, 2) as usize];
                out.extend((0..n).map(|_| rng.uniform_u64(0x20, 0x7e) as u8));
            }
            4 => {
                // `+CREG: 0,` followed by junk of any byte but a terminator.
                out.extend_from_slice(b"+CREG: 0,");
                out.extend((0..len).map(|_| match rng.uniform_u64(0, 0xff) as u8 {
                    b'\r' | b'\n' => b'?',
                    b => b,
                }));
                out.extend_from_slice(b"\r\n");
            }
            _ => {
                let fragment = FRAGMENTS[rng.uniform_u64(0, FRAGMENTS.len() as u64 - 1) as usize];
                out.extend_from_slice(fragment);
            }
        }
    }
    out
}
