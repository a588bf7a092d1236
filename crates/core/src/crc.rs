//! CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init and final
//! XOR `!0`), the one checksum behind the superblock, the snapshot
//! manifest and file CRCs, and every value-log record.
//!
//! The kernel is portable slicing-by-16: sixteen 256-entry tables, built
//! at compile time, fold 16 input bytes per step with independent table
//! lookups. It produces the same values as the bitwise definition (kept
//! as the test reference below) roughly ten times faster, which matters
//! because every value-log append, spilled read, recovery scan and
//! compaction move checksums its whole record.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = make_tables();

const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32_ieee(data: &[u8]) -> u32 {
    crc32_ieee_update(0, data)
}

/// Extends `crc` — the CRC-32 of some prefix, or 0 for the empty one — by
/// `data`. Folding a stream chunk by chunk gives the same value as one
/// [`crc32_ieee`] call over the concatenation.
pub fn crc32_ieee_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise definition the table kernel must reproduce.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (!(crc & 1)).wrapping_add(1));
            }
        }
        !crc
    }

    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = hdnh_common::rng::XorShift64Star::new(seed | 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn matches_reference_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b""), 0);
        assert_eq!(crc32_ieee(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32_ieee(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn matches_reference_on_every_short_length() {
        let data = bytes(300, 7);
        for len in 0..=data.len() {
            assert_eq!(
                crc32_ieee(&data[..len]),
                reference(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        #[test]
        fn kernel_matches_reference_at_every_alignment(
            len in 0usize..70_001,
            seed in any::<u64>(),
        ) {
            let data = bytes(len, seed);
            let want = reference(&data);
            let mut buf = vec![0u8; len + 16];
            for align in 0..16 {
                buf[align..align + len].copy_from_slice(&data);
                prop_assert_eq!(crc32_ieee(&buf[align..align + len]), want, "align {}", align);
            }
        }

        #[test]
        fn update_over_splits_equals_one_shot(
            len in 0usize..70_001,
            seed in any::<u64>(),
            cuts in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let data = bytes(len, seed);
            let mut at: Vec<usize> = cuts.iter().map(|c| (*c % (len as u64 + 1)) as usize).collect();
            at.push(0);
            at.push(len);
            at.sort_unstable();
            let crc = at.windows(2).fold(0, |crc, w| crc32_ieee_update(crc, &data[w[0]..w[1]]));
            prop_assert_eq!(crc, crc32_ieee(&data));
        }
    }
}
