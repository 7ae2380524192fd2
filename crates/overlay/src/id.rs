//! The 160-bit identifier space shared by structured overlays.
//!
//! Kademlia interprets [`Key`]s under the XOR metric; Chord interprets
//! them as points on a mod-2^160 ring. Both views are provided here.

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

use decent_sim::rng::SimRng;

/// Number of bits in an overlay identifier.
pub const KEY_BITS: usize = 160;
const KEY_BYTES: usize = KEY_BITS / 8;

/// A 160-bit overlay identifier (node id or content key).
///
/// # Examples
///
/// ```
/// use decent_overlay::id::Key;
///
/// let a = Key::from_u64(1);
/// let b = Key::from_u64(2);
/// assert_ne!(a, b);
/// assert_eq!(a.xor_distance(&b).leading_zeros(), a.xor_distance(&b).leading_zeros());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Key([u8; KEY_BYTES]);

const _: () = assert!(KEY_BYTES == 16 + 4, "Key::words reads a u128 and a u32");

/// Big-endian numeric order, compared on two machine words instead of
/// byte by byte. Only the comparison uses words: a `(u128, u32)` field
/// would be 32 bytes at align 16 where the byte array is 20 at align 1.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Key {
    /// The all-zero key.
    pub const ZERO: Key = Key([0; KEY_BYTES]);
    /// The all-ones key (maximum value).
    pub const MAX: Key = Key([0xFF; KEY_BYTES]);

    /// Creates a key from raw bytes.
    pub const fn from_bytes(bytes: [u8; KEY_BYTES]) -> Self {
        Key(bytes)
    }

    /// The raw bytes, most-significant first.
    pub const fn as_bytes(&self) -> &[u8; KEY_BYTES] {
        &self.0
    }

    /// Derives a key from a `u64` by mixing it through SplitMix64 five
    /// times (a stand-in for a cryptographic hash; uniform and stable).
    pub fn from_u64(x: u64) -> Self {
        let mut bytes = [0u8; KEY_BYTES];
        let mut z = x ^ 0xA076_1D64_78BD_642F;
        for chunk in bytes.chunks_mut(8) {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut v = z;
            v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            v = (v ^ (v >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            v ^= v >> 31;
            chunk.copy_from_slice(&v.to_be_bytes()[..chunk.len()]);
        }
        Key(bytes)
    }

    /// Draws a uniformly random key.
    pub fn random(rng: &mut SimRng) -> Self {
        let mut bytes = [0u8; KEY_BYTES];
        rng.fill(&mut bytes[..]);
        Key(bytes)
    }

    /// Draws a random key whose XOR distance from `self` has its highest
    /// set bit in bucket `bucket` (0 = farthest half of the keyspace,
    /// 159 = the two closest ids). Used for bucket refresh.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= KEY_BITS`.
    pub fn random_in_bucket(&self, bucket: usize, rng: &mut SimRng) -> Key {
        assert!(bucket < KEY_BITS);
        let mut k = Key::random(rng);
        // Force the prefix above `bucket` to match self and flip bit `bucket`.
        for i in 0..bucket {
            k.set_bit(i, self.bit(i));
        }
        k.set_bit(bucket, !self.bit(bucket));
        k
    }

    /// XOR distance to `other` (the Kademlia metric).
    pub fn xor_distance(&self, other: &Key) -> Distance {
        let mut d = [0u8; KEY_BYTES];
        for ((out, a), b) in d.iter_mut().zip(&self.0).zip(&other.0) {
            *out = a ^ b;
        }
        Distance(Key(d))
    }

    /// Bit `i` (0 is the most significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= KEY_BITS`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < KEY_BITS);
        (self.0[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    fn set_bit(&mut self, i: usize, v: bool) {
        let mask = 1u8 << (7 - i % 8);
        if v {
            self.0[i / 8] |= mask;
        } else {
            self.0[i / 8] &= !mask;
        }
    }

    /// The key as a big-endian number in two words: the first 16 bytes
    /// and the last 4. XOR commutes with the split, so the words of a
    /// distance are the XOR of the two keys' words.
    pub(crate) fn words(&self) -> (u128, u32) {
        let (mut hi, mut lo) = ([0u8; 16], [0u8; 4]);
        hi.copy_from_slice(&self.0[..16]);
        lo.copy_from_slice(&self.0[16..]);
        (u128::from_be_bytes(hi), u32::from_be_bytes(lo))
    }

    /// The key whose [`Key::words`] are `(hi, lo)`.
    pub(crate) fn from_words(hi: u128, lo: u32) -> Key {
        let mut bytes = [0u8; KEY_BYTES];
        bytes[..16].copy_from_slice(&hi.to_be_bytes());
        bytes[16..].copy_from_slice(&lo.to_be_bytes());
        Key(bytes)
    }

    /// Number of leading zero bits.
    pub fn leading_zeros(&self) -> usize {
        let (hi, lo) = self.words();
        if hi != 0 {
            hi.leading_zeros() as usize
        } else {
            128 + lo.leading_zeros() as usize
        }
    }

    /// `self + 2^exp (mod 2^160)` — the Chord finger-start computation.
    ///
    /// # Panics
    ///
    /// Panics if `exp >= KEY_BITS`.
    pub fn add_pow2(&self, exp: usize) -> Key {
        assert!(exp < KEY_BITS);
        let mut out = self.0;
        let bit_from_lsb = exp; // exp counts from the least-significant bit
        let mut byte = KEY_BYTES - 1 - bit_from_lsb / 8;
        let mut carry = 1u16 << (bit_from_lsb % 8);
        loop {
            let sum = out[byte] as u16 + carry;
            out[byte] = (sum & 0xFF) as u8;
            carry = sum >> 8;
            if carry == 0 || byte == 0 {
                break;
            }
            byte -= 1;
        }
        Key(out)
    }

    /// Whether `self` lies on the clockwise arc `(from, to]` of the ring
    /// (Chord's successor-interval test). When `from == to` the arc is the
    /// whole ring, so the answer is always true.
    pub fn in_arc(&self, from: &Key, to: &Key) -> bool {
        if from == to {
            return true;
        }
        if from < to {
            from < self && self <= to
        } else {
            self > from || self <= to
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Key({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "..")
    }
}

/// An XOR distance between two keys; ordered numerically.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Distance(Key);

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance(Key::ZERO);

    /// Number of leading zero bits (the shared-prefix length).
    pub fn leading_zeros(&self) -> usize {
        self.0.leading_zeros()
    }

    /// The Kademlia bucket index for this distance: `KEY_BITS - 1 -
    /// leading_zeros`, or `None` for the zero distance (self).
    pub fn bucket(&self) -> Option<usize> {
        let lz = self.leading_zeros();
        (lz < KEY_BITS).then(|| KEY_BITS - 1 - lz)
    }

    /// The underlying key-typed value.
    pub fn as_key(&self) -> &Key {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decent_sim::rng::rng_from_seed;

    #[test]
    fn xor_metric_laws() {
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            let a = Key::random(&mut rng);
            let b = Key::random(&mut rng);
            let c = Key::random(&mut rng);
            // Identity.
            assert_eq!(a.xor_distance(&a), Distance::ZERO);
            // Symmetry.
            assert_eq!(a.xor_distance(&b), b.xor_distance(&a));
            // XOR "triangle equality": d(a,c) <= d(a,b) XOR-combined d(b,c)
            // in the sense that XOR distances compose.
            let ab = a.xor_distance(&b);
            let bc = b.xor_distance(&c);
            let ac = a.xor_distance(&c);
            let combined = ab.as_key().xor_distance(bc.as_key());
            assert_eq!(*combined.as_key(), *ac.as_key());
        }
    }

    #[test]
    fn bits_roundtrip() {
        let mut rng = rng_from_seed(2);
        let k = Key::random(&mut rng);
        let mut k2 = Key::ZERO;
        for i in 0..KEY_BITS {
            k2.set_bit(i, k.bit(i));
        }
        assert_eq!(k, k2);
    }

    #[test]
    fn leading_zeros_and_buckets() {
        assert_eq!(Key::ZERO.leading_zeros(), KEY_BITS);
        assert_eq!(Key::MAX.leading_zeros(), 0);
        let mut one = [0u8; 20];
        one[19] = 1;
        let near = Key::from_bytes(one);
        let d = Key::ZERO.xor_distance(&near);
        assert_eq!(d.leading_zeros(), KEY_BITS - 1);
        assert_eq!(d.bucket(), Some(0));
        assert_eq!(Key::ZERO.xor_distance(&Key::ZERO).bucket(), None);
        assert_eq!(
            Key::ZERO.xor_distance(&Key::MAX).bucket(),
            Some(KEY_BITS - 1)
        );
    }

    #[test]
    fn random_in_bucket_lands_in_bucket() {
        let mut rng = rng_from_seed(3);
        let me = Key::random(&mut rng);
        for bucket_from_top in [0usize, 5, 100, 159] {
            let k = me.random_in_bucket(bucket_from_top, &mut rng);
            let lz = me.xor_distance(&k).leading_zeros();
            assert_eq!(lz, bucket_from_top, "bucket {bucket_from_top}");
        }
    }

    #[test]
    fn add_pow2_wraps() {
        // MAX + 2^0 = 0.
        assert_eq!(Key::MAX.add_pow2(0), Key::ZERO);
        // 0 + 2^159 sets the top bit.
        let top = Key::ZERO.add_pow2(159);
        assert!(top.bit(0));
        assert_eq!(top.leading_zeros(), 0);
        // 0 + 2^0 sets the bottom bit.
        let one = Key::ZERO.add_pow2(0);
        assert_eq!(one.leading_zeros(), KEY_BITS - 1);
    }

    #[test]
    fn arcs_on_the_ring() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(20);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(hi.in_arc(&lo, &hi));
        assert!(!lo.in_arc(&lo, &hi));
        // Wrap-around arc (hi, lo] contains MAX or ZERO.
        assert!(Key::MAX.in_arc(&hi, &lo) || Key::ZERO.in_arc(&hi, &lo));
        // Full ring when endpoints coincide.
        assert!(a.in_arc(&b, &b));
    }

    #[test]
    fn from_u64_is_uniform_ish() {
        // Leading byte should take many distinct values across inputs.
        let mut firsts: Vec<u8> = (0..256u64)
            .map(|i| Key::from_u64(i).as_bytes()[0])
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert!(
            firsts.len() > 150,
            "only {} distinct leading bytes",
            firsts.len()
        );
    }

    #[test]
    fn word_order_is_byte_order() {
        let same = |a: Key, b: Key| {
            assert_eq!(a.cmp(&b), a.as_bytes().cmp(b.as_bytes()), "{a:?} {b:?}");
            assert_eq!(a < b, a.as_bytes() < b.as_bytes());
        };
        let mut rng = rng_from_seed(4);
        for _ in 0..10_000 {
            same(Key::random(&mut rng), Key::random(&mut rng));
        }
        // Pairs that differ in one byte only: the first and last byte of
        // each word.
        for byte in [0, 15, 16, 19] {
            let a = Key::random(&mut rng);
            let mut bytes = *a.as_bytes();
            bytes[byte] ^= 0x80;
            let b = Key::from_bytes(bytes);
            same(a, b);
            same(b, a);
            same(a, a);
        }
    }

    #[test]
    fn words_roundtrip_and_xor_is_the_distance() {
        let mut rng = rng_from_seed(5);
        for _ in 0..1_000 {
            let (a, b) = (Key::random(&mut rng), Key::random(&mut rng));
            let ((ahi, alo), (bhi, blo)) = (a.words(), b.words());
            assert_eq!(Key::from_words(ahi, alo), a);
            assert_eq!(
                Key::from_words(ahi ^ bhi, alo ^ blo),
                *a.xor_distance(&b).as_key()
            );
        }
    }

    #[test]
    fn leading_zeros_is_the_byte_loops() {
        fn byte_loop(k: &Key) -> usize {
            for (i, &b) in k.as_bytes().iter().enumerate() {
                if b != 0 {
                    return i * 8 + b.leading_zeros() as usize;
                }
            }
            KEY_BITS
        }
        let single_bits = (0..KEY_BITS).map(|i| {
            let mut k = Key::ZERO;
            k.set_bit(i, true);
            k
        });
        for k in single_bits.chain([Key::ZERO, Key::MAX]) {
            assert_eq!(k.leading_zeros(), byte_loop(&k), "{:?}", k.as_bytes());
        }
    }

    #[test]
    fn ordering_is_big_endian_numeric() {
        let a = Key::from_bytes({
            let mut b = [0u8; 20];
            b[0] = 1;
            b
        });
        let b = Key::from_bytes({
            let mut b = [0u8; 20];
            b[19] = 0xFF;
            b
        });
        assert!(a > b);
    }
}
