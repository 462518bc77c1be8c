//! 64-bit FNV-1a, the workspace's one determinism hash.
//!
//! Every run-twice gate, shard-invariance witness and bench report hash
//! folds its observable stream through this hasher: tiny,
//! dependency-free and stable across platforms.

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Creates the hasher with the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Folds bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` as its eight little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}
