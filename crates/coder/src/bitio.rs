//! Bit-level writer and reader over byte buffers.
//!
//! Bits are packed most-significant-bit first inside each byte, which keeps
//! the streams easy to inspect in a hex dump.
//!
//! Both ends move bits a word at a time instead of a bit at a time. The
//! writer collects up to 31 pending bits in a 64-bit accumulator and emits
//! them 32 at a time, so a multi-bit field is one shift-and-or and most
//! writes never touch the output buffer. The reader is a bit cursor over the
//! byte slice: every read peeks the 8 bytes under the cursor as one
//! big-endian word, so a Rice codeword is one peek, one `leading_ones` and
//! one cursor add. The stream layout is unchanged from the original per-bit
//! implementation (the test module keeps that writer and the earlier
//! accumulator reader around as references).

use crate::CoderError;

/// Largest field one writer shift takes, and the width it emits at once:
/// the writer holds at most 31 pending bits, so 32 more always fit its
/// 64-bit accumulator.
const WRITE_CHUNK_BITS: u32 = 32;

/// Stream bits every reader peek holds: 64 minus the cursor's offset into
/// its first byte, at least 57.
const PEEK_BITS: u32 = 57;

/// Accumulates bits into a byte vector.
///
/// Internally the writer keeps up to 31 not-yet-emitted bits right-aligned
/// in a 64-bit accumulator; every write shifts the new field in below them,
/// and once 32 bits are pending they go out as one big-endian word.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; only the low [`Self::pending`] bits are
    /// meaningful (higher bits may hold stale data and are masked on output).
    acc: u64,
    /// Number of valid bits in `acc`; always `< 32` between calls.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits the top 32 pending bits once at least 32 are pending.
    #[inline]
    fn flush_word(&mut self) {
        if self.pending >= WRITE_CHUNK_BITS {
            self.pending -= WRITE_CHUNK_BITS;
            self.bytes.extend_from_slice(&((self.acc >> self.pending) as u32).to_be_bytes());
        }
    }

    /// Emits every whole pending byte, leaving fewer than 8 bits pending.
    fn flush_bytes(&mut self) {
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | u64::from(bit);
        self.pending += 1;
        self.flush_word();
    }

    /// Writes the `count` least-significant bits of `value`, most significant
    /// of those first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count > WRITE_CHUNK_BITS {
            self.write_bits(value >> WRITE_CHUNK_BITS, count - WRITE_CHUNK_BITS);
            self.write_bits(value, WRITE_CHUNK_BITS);
            return;
        }
        // `count <= 32`, so neither shift can reach 64 and `count == 0` is
        // a no-op without a branch.
        let masked = value & ((1u64 << count) - 1);
        self.acc = (self.acc << count) | masked;
        self.pending += count;
        self.flush_word();
    }

    /// Writes `count` as a unary run (`count` one-bits followed by a zero),
    /// 32 ones per accumulator step; see [`crate::rice`] for the bound that
    /// keeps encoder-produced runs short in the first place.
    pub fn write_unary(&mut self, count: u64) {
        let mut remaining = count;
        while remaining >= u64::from(WRITE_CHUNK_BITS) {
            self.write_bits(u64::MAX, WRITE_CHUNK_BITS);
            remaining -= u64::from(WRITE_CHUNK_BITS);
        }
        // `remaining < 32` here: the leftover ones and the terminator form
        // one field of at most 32 bits.
        self.write_bits((1 << (remaining + 1)) - 2, remaining as u32 + 1);
    }

    /// Appends the first `bit_len` bits of `bytes` (MSB-first, the layout
    /// [`BitWriter::into_bytes`] produces) to this stream.
    ///
    /// This is the splice primitive of the per-subband parallel codec: each
    /// worker fills its own writer and the fragments are concatenated at
    /// arbitrary bit offsets. When this writer happens to be byte-aligned the
    /// fragment's whole bytes are copied directly.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `bit_len` bits.
    pub fn append(&mut self, bytes: &[u8], bit_len: u64) {
        assert!(
            bytes.len() as u64 * 8 >= bit_len,
            "fragment of {} bytes cannot hold {bit_len} bits",
            bytes.len()
        );
        let whole = (bit_len / 8) as usize;
        let rem = (bit_len % 8) as u32;
        self.flush_bytes();
        if self.pending == 0 {
            self.bytes.extend_from_slice(&bytes[..whole]);
        } else {
            let mut chunks = bytes[..whole].chunks_exact(4);
            for chunk in &mut chunks {
                let word = u32::from_be_bytes(chunk.try_into().expect("chunk of 4"));
                self.write_bits(u64::from(word), 32);
            }
            for &byte in chunks.remainder() {
                self.write_bits(u64::from(byte), 8);
            }
        }
        if rem > 0 {
            self.write_bits(u64::from(bytes[whole] >> (8 - rem)), rem);
        }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Finishes the stream, padding the last byte with zero bits.
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let aligned = self.acc << (64 - self.pending);
            let tail = self.pending.div_ceil(8) as usize;
            self.bytes.extend_from_slice(&aligned.to_be_bytes()[..tail]);
        }
        self.bytes
    }
}

/// Reads bits from a byte slice.
///
/// The reader is a bit cursor. Every read peeks the 8 bytes holding the
/// cursor as one big-endian word (zero-padded past the end of the slice)
/// and shifts the cursor's bit offset out of the top, which leaves at least
/// 57 upcoming bits left-aligned. Fields up to that width come out with one
/// shift, unary runs with one `leading_ones`; the only state is the cursor.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far; never beyond `len_bits`.
    pos: u64,
    /// Total number of bits in `bytes`.
    len_bits: u64,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0, len_bits: bytes.len() as u64 * 8 }
    }

    fn end_of_stream() -> CoderError {
        CoderError::MalformedStream("unexpected end of bitstream".to_owned())
    }

    /// Bits left after the cursor.
    #[inline]
    fn remaining(&self) -> u64 {
        self.len_bits - self.pos
    }

    /// The upcoming bits, left-aligned: see [`peek_at`].
    #[inline]
    fn peek(&self) -> u64 {
        peek_at(self.bytes, self.pos)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CoderError> {
        if self.remaining() == 0 {
            return Err(Self::end_of_stream());
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `count` bits into the low bits of a `u64`.
    ///
    /// A field of up to 57 bits comes out of one peek with one shift; wider
    /// fields are split once.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CoderError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count == 0 {
            return Ok(0);
        }
        if count > PEEK_BITS {
            let high = self.read_bits(count - 32)?;
            let low = self.read_bits(32)?;
            return Ok((high << 32) | low);
        }
        if self.remaining() < u64::from(count) {
            return Err(Self::end_of_stream());
        }
        let value = self.peek() >> (64 - count);
        self.pos += u64::from(count);
        Ok(value)
    }

    /// Reads a unary run (number of one-bits before the terminating zero).
    ///
    /// The run is counted with `leading_ones` over each peeked word, so long
    /// runs cost a few instructions per 57 bits instead of a call per bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    pub fn read_unary(&mut self) -> Result<u64, CoderError> {
        let mut count = 0u64;
        loop {
            let window = 64 - (self.pos % 8) as u32;
            // Bits below the window are zero, so `leading_ones` stops inside
            // it unless every window bit is a one — and the zero padding past
            // the end of the slice cannot pass for ones.
            let ones = self.peek().leading_ones();
            if ones < window {
                if self.remaining() <= u64::from(ones) {
                    // The "terminator" is padding: the run never ends.
                    self.pos = self.len_bits;
                    return Err(Self::end_of_stream());
                }
                self.pos += u64::from(ones) + 1;
                return Ok(count + u64::from(ones));
            }
            count += u64::from(ones);
            self.pos += u64::from(ones);
        }
    }

    /// Reads a unary run immediately followed by a `count`-bit field — the
    /// shape of one Rice codeword.
    ///
    /// Equivalent to [`BitReader::read_unary`] followed by
    /// [`BitReader::read_bits`], but when the whole codeword lies inside one
    /// peek (every codeword the block-adaptive coder writes with `k <= 30`
    /// and a short run) it costs one peek, one `leading_ones` and one cursor
    /// add.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_unary_then_bits(&mut self, count: u32) -> Result<(u64, u64), CoderError> {
        if let Some((run, field, used)) = self.codeword_at(self.pos, count) {
            self.pos += u64::from(used);
            return Ok((run, field));
        }
        let quotient = self.read_unary()?;
        let field = self.read_bits(count)?;
        Ok((quotient, field))
    }

    /// The codeword at bit `pos` — a unary run, its terminator and a
    /// `count`-bit field — as `(run, field, bits)`, if it lies wholly inside
    /// one peek and before the end of the stream; `None` sends the caller
    /// to the general path.
    #[inline]
    fn codeword_at(&self, pos: u64, count: u32) -> Option<(u64, u64, u32)> {
        let word = peek_at(self.bytes, pos);
        let ones = word.leading_ones();
        let used = ones + 1 + count;
        if used > PEEK_BITS || u64::from(used) > self.len_bits - pos {
            return None;
        }
        // `used <= 57` keeps both shifts in range; the second is split so
        // that `count == 0` never shifts by 64.
        let field = (word << (ones + 1)) >> (63 - count) >> 1;
        Some((u64::from(ones), field, used))
    }

    /// Reads `out.len()` Rice codewords that share the field width `k` —
    /// one block of the subband coder — storing `map((run << k) | field)`
    /// for each. Equivalent to that many [`BitReader::read_unary_then_bits`]
    /// calls, but the cursor stays in a register across the block, so the
    /// per-codeword dependency chain is the peek, `leading_ones` and one
    /// add.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input; `out` then
    /// holds the codewords decoded so far.
    #[inline]
    pub(crate) fn read_codewords(
        &mut self,
        k: u32,
        out: &mut [i32],
        map: impl Fn(u64) -> i32,
    ) -> Result<(), CoderError> {
        let mut pos = self.pos;
        for slot in out {
            if let Some((run, field, used)) = self.codeword_at(pos, k) {
                pos += u64::from(used);
                *slot = map((run << k) | field);
            } else {
                self.pos = pos;
                let (quotient, field) = self.read_unary_then_bits(k)?;
                pos = self.pos;
                *slot = map((quotient << k) | field);
            }
        }
        self.pos = pos;
        Ok(())
    }

    /// Skips `count` bits without decoding them (used by the subband
    /// directory scanner of the parallel codec).
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if fewer than `count` bits
    /// remain.
    pub fn skip_bits(&mut self, count: u64) -> Result<(), CoderError> {
        if count > self.remaining() {
            return Err(Self::end_of_stream());
        }
        self.pos += count;
        Ok(())
    }

    /// Number of bits consumed so far.
    #[must_use]
    pub fn bits_read(&self) -> u64 {
        self.pos
    }
}

/// The bits from bit `pos` of `bytes` on, left-aligned in one word: the
/// 8 bytes holding `pos` as a big-endian load (zero-padded past the end of
/// the slice) shifted by `pos % 8`, so the top `64 - pos % 8 >= 57` bits
/// are stream bits and the rest are zero.
#[inline]
fn peek_at(bytes: &[u8], pos: u64) -> u64 {
    let i = (pos / 8) as usize;
    let word = match bytes.get(i..i + 8) {
        Some(chunk) => u64::from_be_bytes(chunk.try_into().expect("chunk of 8")),
        None => {
            let tail = bytes.get(i..).unwrap_or(&[]);
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(padded)
        }
    };
    word << (pos % 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original bit-at-a-time writer, kept verbatim as the behavioural
    /// reference for the word-at-a-time rewrite: every stream the fast writer
    /// produces must be byte-identical to this one's.
    #[derive(Debug, Default)]
    struct ReferenceBitWriter {
        bytes: Vec<u8>,
        current: u8,
        filled: u32,
    }

    impl ReferenceBitWriter {
        fn write_bit(&mut self, bit: bool) {
            self.current = (self.current << 1) | u8::from(bit);
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }

        fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn write_unary(&mut self, count: u64) {
            for _ in 0..count {
                self.write_bit(true);
            }
            self.write_bit(false);
        }

        fn into_bytes(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.current <<= 8 - self.filled;
                self.bytes.push(self.current);
            }
            self.bytes
        }
    }

    /// The accumulator reader this module shipped before the cursor-and-peek
    /// rewrite, kept as the behavioural reference: on any op sequence the
    /// fast reader must return the same values, the same `bits_read` and the
    /// same Ok/Err outcomes.
    #[derive(Debug, Clone)]
    struct ReferenceBitReader<'a> {
        bytes: &'a [u8],
        next_byte: usize,
        acc: u64,
        avail: u32,
    }

    impl<'a> ReferenceBitReader<'a> {
        #[must_use]
        fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, next_byte: 0, acc: 0, avail: 0 }
        }

        fn total_bits(&self) -> u64 {
            self.bytes.len() as u64 * 8
        }

        fn end_of_stream() -> CoderError {
            CoderError::MalformedStream("unexpected end of bitstream".to_owned())
        }

        fn refill(&mut self) {
            let take_bits = (64 - self.avail) & !7;
            if take_bits == 0 {
                return;
            }
            if let Some(chunk) = self.bytes.get(self.next_byte..self.next_byte + 8) {
                let word = u64::from_be_bytes(chunk.try_into().expect("chunk of 8"));
                self.acc |= (word >> (64 - take_bits)) << (64 - self.avail - take_bits);
                self.avail += take_bits;
                self.next_byte += (take_bits / 8) as usize;
            } else {
                while self.avail <= 56 && self.next_byte < self.bytes.len() {
                    self.acc |= u64::from(self.bytes[self.next_byte]) << (56 - self.avail);
                    self.avail += 8;
                    self.next_byte += 1;
                }
            }
        }

        fn consume(&mut self, count: u32) {
            self.acc = if count == 64 { 0 } else { self.acc << count };
            self.avail -= count;
        }

        fn read_bit(&mut self) -> Result<bool, CoderError> {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    return Err(Self::end_of_stream());
                }
            }
            let bit = self.acc >> 63 == 1;
            self.consume(1);
            Ok(bit)
        }

        fn read_bits(&mut self, count: u32) -> Result<u64, CoderError> {
            assert!(count <= 64, "cannot read more than 64 bits at once");
            if count == 0 {
                return Ok(0);
            }
            if count > 57 {
                // The refill tops out at 63 buffered bits, which cannot satisfy
                // a 58..=64-bit field at every alignment; split it once.
                let high = self.read_bits(count - 32)?;
                let low = self.read_bits(32)?;
                return Ok((high << 32) | low);
            }
            if self.avail < count {
                self.refill();
                if self.avail < count {
                    return Err(Self::end_of_stream());
                }
            }
            let value = self.acc >> (64 - count);
            self.consume(count);
            Ok(value)
        }

        fn read_unary(&mut self) -> Result<u64, CoderError> {
            let mut count = 0u64;
            loop {
                if self.avail == 0 {
                    self.refill();
                    if self.avail == 0 {
                        return Err(Self::end_of_stream());
                    }
                }
                // Bits below the valid region are zero, so `leading_ones` can
                // only overshoot `avail` when all valid bits are ones.
                let ones = self.acc.leading_ones().min(self.avail);
                if ones < self.avail {
                    self.consume(ones + 1);
                    return Ok(count + u64::from(ones));
                }
                count += u64::from(ones);
                self.consume(ones);
            }
        }

        fn read_unary_then_bits(&mut self, count: u32) -> Result<(u64, u64), CoderError> {
            if self.avail < 57 {
                self.refill();
            }
            let ones = self.acc.leading_ones().min(self.avail);
            if ones < self.avail && ones + 1 + count <= self.avail {
                // With `count >= 1` the constraint `ones + 1 + count <= 64`
                // keeps the run shift below 64; the `count == 0` arm never
                // shifts, so a 63-one run cannot overflow the shift either.
                let field = if count == 0 { 0 } else { (self.acc << (ones + 1)) >> (64 - count) };
                self.consume(ones + 1 + count);
                return Ok((u64::from(ones), field));
            }
            let quotient = self.read_unary()?;
            let field = self.read_bits(count)?;
            Ok((quotient, field))
        }

        fn skip_bits(&mut self, count: u64) -> Result<(), CoderError> {
            if u64::from(self.avail) >= count {
                self.consume(count as u32);
                return Ok(());
            }
            let target = self.bits_read() + count;
            if target > self.total_bits() {
                return Err(Self::end_of_stream());
            }
            self.next_byte = (target / 8) as usize;
            self.acc = 0;
            self.avail = 0;
            let offset = (target % 8) as u32;
            if offset != 0 {
                // Re-load the rest of the byte the target lands inside.
                self.acc = u64::from(self.bytes[self.next_byte]) << (56 + offset);
                self.avail = 8 - offset;
                self.next_byte += 1;
            }
            Ok(())
        }

        #[must_use]
        fn bits_read(&self) -> u64 {
            self.next_byte as u64 * 8 - u64::from(self.avail)
        }
    }

    /// One random writer operation of the property mix.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Bit(bool),
        Bits(u64, u32),
        Unary(u64),
    }

    fn random_ops(rng: &mut StdRng, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Op::Bit(rng.gen_range(0..2) == 1),
                1 => {
                    let count = rng.gen_range(0..=64u32);
                    Op::Bits(rng.gen_range(0..=u64::MAX), count)
                }
                // Heavy tail: include runs far beyond 64 bits so the
                // whole-byte emission and scanning paths are exercised.
                _ => Op::Unary(if rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(64..400u64)
                } else {
                    rng.gen_range(0..20u64)
                }),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Byte-identical streams: any mix of bit, multi-bit and unary writes
        /// produces exactly the bytes of the original per-bit implementation.
        #[test]
        fn writer_matches_the_per_bit_reference(seed in 0u64..1_000_000, len in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = random_ops(&mut rng, len);
            let mut fast = BitWriter::new();
            let mut reference = ReferenceBitWriter::default();
            for &op in &ops {
                match op {
                    Op::Bit(b) => {
                        fast.write_bit(b);
                        reference.write_bit(b);
                    }
                    Op::Bits(v, c) => {
                        fast.write_bits(v, c);
                        reference.write_bits(v, c);
                    }
                    Op::Unary(n) => {
                        fast.write_unary(n);
                        reference.write_unary(n);
                    }
                }
            }
            prop_assert_eq!(fast.into_bytes(), reference.into_bytes());
        }

        /// Identical read-back: whatever was written comes back value for
        /// value through the word-at-a-time reader.
        #[test]
        fn reader_roundtrips_random_op_mixes(seed in 0u64..1_000_000, len in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = random_ops(&mut rng, len);
            let mut writer = BitWriter::new();
            for &op in &ops {
                match op {
                    Op::Bit(b) => writer.write_bit(b),
                    Op::Bits(v, c) => writer.write_bits(v, c),
                    Op::Unary(n) => writer.write_unary(n),
                }
            }
            let bytes = writer.into_bytes();
            let mut reader = BitReader::new(&bytes);
            for &op in &ops {
                match op {
                    Op::Bit(b) => prop_assert_eq!(reader.read_bit().unwrap(), b),
                    Op::Bits(v, c) => {
                        let expected = if c == 0 { 0 } else { v & (u64::MAX >> (64 - c)) };
                        prop_assert_eq!(reader.read_bits(c).unwrap(), expected);
                    }
                    Op::Unary(n) => prop_assert_eq!(reader.read_unary().unwrap(), n),
                }
            }
        }

        /// Splicing fragments at arbitrary bit offsets reproduces the stream
        /// a single writer would have produced.
        #[test]
        fn append_equals_writing_in_one_stream(seed in 0u64..1_000_000, pieces in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fragments: Vec<Vec<Op>> = (0..pieces)
                .map(|_| {
                    let len = rng.gen_range(1..40);
                    random_ops(&mut rng, len)
                })
                .collect();
            let mut single = BitWriter::new();
            let mut spliced = BitWriter::new();
            for ops in &fragments {
                let mut fragment = BitWriter::new();
                for &op in ops {
                    match op {
                        Op::Bit(b) => {
                            single.write_bit(b);
                            fragment.write_bit(b);
                        }
                        Op::Bits(v, c) => {
                            single.write_bits(v, c);
                            fragment.write_bits(v, c);
                        }
                        Op::Unary(n) => {
                            single.write_unary(n);
                            fragment.write_unary(n);
                        }
                    }
                }
                let bits = fragment.bit_len();
                spliced.append(&fragment.into_bytes(), bits);
            }
            prop_assert_eq!(spliced.bit_len(), single.bit_len());
            prop_assert_eq!(spliced.into_bytes(), single.into_bytes());
        }
    }

    /// One random reader operation of the differential property mix.
    #[derive(Debug, Clone, Copy)]
    enum ReadOp {
        Bit,
        Bits(u32),
        Unary,
        UnaryThenBits(u32),
        Skip(u64),
    }

    /// Random bytes biased toward `0xFF` so unary runs get long and cross
    /// peek windows, buffer ends and the zero padding.
    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 | 1 => 0xFF,
                2 => rng.gen_range(0..=0xFFu8),
                _ => 1 << rng.gen_range(0..8u32),
            })
            .collect()
    }

    fn random_read_ops(rng: &mut StdRng, len: usize) -> Vec<ReadOp> {
        (0..len)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => ReadOp::Bit,
                1 => ReadOp::Bits(rng.gen_range(0..=64u32)),
                2 => ReadOp::Unary,
                3 => ReadOp::UnaryThenBits(rng.gen_range(0..=64u32)),
                _ => ReadOp::Skip(rng.gen_range(0..100u64)),
            })
            .collect()
    }

    /// Writes `lead` filler bits, then the fields; returns the bytes of both
    /// writers (fast, reference) for comparison.
    fn write_after_lead(lead: u32, fields: &[(u64, u32)]) -> (Vec<u8>, Vec<u8>) {
        let mut fast = BitWriter::new();
        let mut reference = ReferenceBitWriter::default();
        for i in 0..lead {
            fast.write_bit(i % 3 == 0);
            reference.write_bit(i % 3 == 0);
        }
        for &(value, count) in fields {
            fast.write_bits(value, count);
            reference.write_bits(value, count);
        }
        (fast.into_bytes(), reference.into_bytes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cursor reader against the accumulator reader it replaced, on
        /// random op mixes over short random buffers: every op reads across
        /// the last 8 bytes (where the peek zero-pads) and most sequences
        /// run past the end. Values, `bits_read` and Ok/Err must agree after
        /// every op, errors included.
        #[test]
        fn reader_matches_the_accumulator_reference(
            seed in 0u64..1_000_000,
            len in 0usize..40,
            ops in 1usize..120,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = random_bytes(&mut rng, len);
            let ops = random_read_ops(&mut rng, ops);
            let mut fast = BitReader::new(&bytes);
            let mut reference = ReferenceBitReader::new(&bytes);
            for (i, &op) in ops.iter().enumerate() {
                let (got, want) = match op {
                    ReadOp::Bit => (
                        fast.read_bit().map(|b| (u64::from(b), 0)),
                        reference.read_bit().map(|b| (u64::from(b), 0)),
                    ),
                    ReadOp::Bits(c) => (
                        fast.read_bits(c).map(|v| (v, 0)),
                        reference.read_bits(c).map(|v| (v, 0)),
                    ),
                    ReadOp::Unary => (
                        fast.read_unary().map(|v| (v, 0)),
                        reference.read_unary().map(|v| (v, 0)),
                    ),
                    ReadOp::UnaryThenBits(c) => {
                        (fast.read_unary_then_bits(c), reference.read_unary_then_bits(c))
                    }
                    ReadOp::Skip(n) => {
                        (fast.skip_bits(n).map(|()| (0, 0)), reference.skip_bits(n).map(|()| (0, 0)))
                    }
                };
                prop_assert!(got.is_ok() == want.is_ok(), "op {i} {op:?}: {got:?} vs {want:?}");
                if let (Ok(got), Ok(want)) = (got, want) {
                    prop_assert!(got == want, "op {i} {op:?}: {got:?} vs {want:?}");
                }
                let (at, want_at) = (fast.bits_read(), reference.bits_read());
                prop_assert!(at == want_at, "op {i} {op:?}: bit {at} vs {want_at}");
            }
        }

        /// Fields of every width land at every accumulator fill level,
        /// including the ones that straddle the 32-bit flush, byte for byte
        /// like the per-bit reference.
        #[test]
        fn writer_fields_straddle_the_word_flush(
            seed in 0u64..1_000_000,
            lead in 0u32..64,
            count in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fields: Vec<(u64, u32)> = (0..count)
                .map(|_| (rng.gen_range(0..=u64::MAX), rng.gen_range(0..=64u32)))
                .collect();
            let (fast, reference) = write_after_lead(lead, &fields);
            prop_assert_eq!(fast, reference);
        }

        /// Splicing a fragment at all 8 bit alignments (and at every fill
        /// level of the 32-bit accumulator) matches writing it in one stream.
        #[test]
        fn append_matches_one_stream_at_every_alignment(
            seed in 0u64..1_000_000,
            len in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = random_ops(&mut rng, len);
            let mut fragment = BitWriter::new();
            for &op in &ops {
                match op {
                    Op::Bit(b) => fragment.write_bit(b),
                    Op::Bits(v, c) => fragment.write_bits(v, c),
                    Op::Unary(n) => fragment.write_unary(n),
                }
            }
            let bits = fragment.bit_len();
            let fragment = fragment.into_bytes();
            for lead in 0u32..40 {
                let mut single = BitWriter::new();
                let mut spliced = BitWriter::new();
                single.write_bits(u64::MAX, lead);
                spliced.write_bits(u64::MAX, lead);
                for &op in &ops {
                    match op {
                        Op::Bit(b) => single.write_bit(b),
                        Op::Bits(v, c) => single.write_bits(v, c),
                        Op::Unary(n) => single.write_unary(n),
                    }
                }
                spliced.append(&fragment, bits);
                prop_assert!(spliced.bit_len() == single.bit_len(), "lead {lead}");
                prop_assert!(spliced.into_bytes() == single.into_bytes(), "lead {lead}");
            }
        }
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len() as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.bits_read(), 37);
    }

    #[test]
    fn full_width_fields_roundtrip_at_any_alignment() {
        for lead in 0u32..8 {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            w.write_bits(u64::MAX, 64);
            w.write_bits(0x0123_4567_89AB_CDEF, 64);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(lead).unwrap(), 0);
            assert_eq!(r.read_bits(64).unwrap(), u64::MAX, "lead {lead}");
            assert_eq!(r.read_bits(64).unwrap(), 0x0123_4567_89AB_CDEF, "lead {lead}");
        }
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for n in [0u64, 1, 5, 13] {
            w.write_unary(n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in [0u64, 1, 5, 13] {
            assert_eq!(r.read_unary().unwrap(), n);
        }
    }

    #[test]
    fn long_unary_runs_roundtrip() {
        // Runs beyond 64 bits exercise the whole-0xFF-byte paths.
        let runs = [63u64, 64, 65, 127, 128, 1000];
        for lead in 0u32..8 {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            for &n in &runs {
                w.write_unary(n);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(lead).unwrap(), 0);
            for &n in &runs {
                assert_eq!(r.read_unary().unwrap(), n, "lead {lead}");
            }
        }
    }

    #[test]
    fn end_of_stream_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
        // A unary run that never terminates also errors out.
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_unary().is_err());
        // Same for a run reaching the end mid-byte.
        let mut r = BitReader::new(&[0b0111_1111, 0xFF]);
        assert_eq!(r.read_unary().unwrap(), 0);
        assert!(r.read_unary().is_err());
    }

    #[test]
    fn skip_bits_advances_and_bounds_checks() {
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        r.skip_bits(4).unwrap();
        assert_eq!(r.read_bits(8).unwrap(), 0xBC);
        assert_eq!(r.bits_read(), 12);
        assert!(r.skip_bits(5).is_err());
        r.skip_bits(4).unwrap();
        assert!(r.skip_bits(1).is_err());
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    #[should_panic(expected = "more than 64 bits")]
    fn oversized_write_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(0, 65);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn oversized_append_rejected() {
        let mut w = BitWriter::new();
        w.append(&[0xFF], 9);
    }
}
