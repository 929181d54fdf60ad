//! Property tests for the framer: how a byte stream is chunked across
//! `read` calls must never change what is parsed from it.
//!
//! Random mixes of valid lines, `\r\n` endings, garbage, non-UTF-8,
//! oversized frames, binary frames (valid and corrupt-length) and torn
//! tails are fed through it twice — once as a single read, once split at
//! random points — and the full event sequences (lines, binary payloads,
//! errors, EOF) must match exactly. The properties run on `FrameReader`
//! (the request reader, capped at `MAX_FRAME`) and on a bare `Framer`
//! under both length caps, `MAX_FRAME` and `MAX_REPLY`.

use std::io::{self, Read};

use gb_service::proto::{
    Frame, FrameError, FrameReader, Framed, Framer, WireCodec, BIN_HDR, MAGIC, MAX_FRAME, MAX_REPLY,
};
use proptest::prelude::*;

/// One observable step of the reader, in a comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Line(String),
    Binary(Vec<u8>),
    TooLong,
    NotUtf8,
    Corrupt,
    Torn,
    Eof,
}

/// Drains a reader to EOF, collecting every event. `Pending` cannot
/// occur here: the test readers never return `WouldBlock`.
fn events<R: Read>(reader: R) -> Vec<Ev> {
    let mut fr = FrameReader::new(reader);
    let mut out = Vec::new();
    loop {
        let ev = match fr.poll_line() {
            Ok(Frame::Line(s)) => Ev::Line(s.to_owned()),
            Ok(Frame::Binary(p)) => Ev::Binary(p.to_vec()),
            Ok(Frame::Eof) => {
                out.push(Ev::Eof);
                return out;
            }
            Ok(Frame::Pending) => panic!("test reader returned Pending"),
            Err(FrameError::TooLong) => Ev::TooLong,
            Err(FrameError::NotUtf8) => Ev::NotUtf8,
            Err(FrameError::Corrupt) => Ev::Corrupt,
            Err(FrameError::Torn) => Ev::Torn,
            Err(FrameError::Io(e)) => panic!("unexpected io error: {e}"),
        };
        out.push(ev);
        assert!(out.len() < 10_000, "reader failed to reach EOF");
    }
}

/// The first cut after `pos`, or the end of `data`.
fn next_cut(cuts: &[usize], pos: usize, len: usize) -> usize {
    cuts.iter()
        .copied()
        .filter(|&c| c > pos)
        .min()
        .unwrap_or(len)
        .min(len)
}

/// Drains a bare `Framer` capped at `cap`, fed `data` in chunks whose
/// boundaries fall at `cuts`, collecting every event as [`events`]
/// does.
fn framer_events(data: &[u8], cuts: &[usize], cap: usize) -> Vec<Ev> {
    let mut framer = Framer::new(cap, 8 * 1024);
    let mut pos = 0;
    let mut out = Vec::new();
    loop {
        let ev = match framer.advance() {
            Ok(Framed::Frame(WireCodec::Json)) => match framer.text() {
                Ok(s) => Ev::Line(s.to_owned()),
                Err(FrameError::NotUtf8) => Ev::NotUtf8,
                Err(e) => panic!("unexpected text error: {e}"),
            },
            Ok(Framed::Frame(WireCodec::Binary)) => Ev::Binary(framer.body().to_vec()),
            Ok(Framed::Eof) => {
                out.push(Ev::Eof);
                return out;
            }
            Ok(Framed::Pending) if pos == data.len() => {
                framer.close();
                continue;
            }
            Ok(Framed::Pending) => {
                let cut = next_cut(cuts, pos, data.len());
                let room = framer.read_buf();
                let k = (cut - pos).min(room.len());
                room[..k].copy_from_slice(&data[pos..pos + k]);
                framer.filled(k);
                pos += k;
                continue;
            }
            Err(FrameError::TooLong) => Ev::TooLong,
            Err(FrameError::NotUtf8) => Ev::NotUtf8,
            Err(FrameError::Corrupt) => Ev::Corrupt,
            Err(FrameError::Torn) => Ev::Torn,
            Err(FrameError::Io(e)) => panic!("the framer does no io: {e}"),
        };
        out.push(ev);
        assert!(out.len() < 10_000, "framer failed to reach EOF");
    }
}

/// Hands out `data` in chunks whose boundaries fall at `cuts`
/// (positions into the stream), regardless of the caller's buffer size.
struct Chunked {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let next_cut = next_cut(&self.cuts, self.pos, self.data.len());
        let take = (next_cut - self.pos).min(buf.len());
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// Renders one scripted segment into wire bytes. A "torn" segment only
/// actually tears the stream when it is last — otherwise its bytes fuse
/// with the next segment, which is exactly what TCP would do, and the
/// one-shot reference parse fuses them identically.
fn segment_bytes(kind: u32, param: u32, cap: usize) -> Vec<u8> {
    match kind % 7 {
        0 => format!("req-{param}\n").into_bytes(),
        1 => format!("garbage {param} with spaces\r\n").into_bytes(),
        2 => {
            let mut b = vec![0xFF, 0xFE, 0xC0];
            b.extend_from_slice(format!("{param}").as_bytes());
            b.push(b'\n');
            b
        }
        3 => {
            let mut b = vec![b'x'; cap + 1 + (param as usize % 64)];
            b.push(b'\n');
            b
        }
        4 => bin_frame(&param.to_le_bytes().repeat(1 + param as usize % 4)),
        5 => {
            // Corrupt length header: declares more than the cap. The
            // trailing newline gives the resync a boundary to find.
            let mut b = vec![MAGIC];
            b.extend_from_slice(&((cap as u32) + 1 + param % 1000).to_le_bytes());
            b.extend_from_slice(format!("junk-{param}\n").as_bytes());
            b
        }
        _ => format!("torn-tail-{param}").into_bytes(),
    }
}

/// A well-formed binary frame around `payload`.
fn bin_frame(payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(BIN_HDR + payload.len());
    b.push(MAGIC);
    b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    b.extend_from_slice(payload);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn chunking_never_changes_the_event_sequence(
        segments in prop::collection::vec((0u32..7, any::<u32>()), 1..6),
        cut_seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let (data, cuts) = script(&segments, &cut_seeds, MAX_FRAME);
        let reference = events(&data[..]);
        let chunked = events(Chunked { data, cuts: cuts.clone(), pos: 0 });
        prop_assert_eq!(
            &reference,
            &chunked,
            "event divergence with cuts {:?}",
            cuts
        );
        // Sanity on the sequence shape itself.
        prop_assert_eq!(reference.last(), Some(&Ev::Eof));
        prop_assert_eq!(
            reference.iter().filter(|e| **e == Ev::Eof).count(),
            1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn small_streams_survive_byte_at_a_time_reads(
        segments in prop::collection::vec((0u32..3, 0u32..1000), 1..5),
        tear in any::<u32>(),
    ) {
        let mut data = Vec::new();
        for &(kind, param) in &segments {
            data.extend_from_slice(&segment_bytes(kind, param, MAX_FRAME));
        }
        if tear % 2 == 0 {
            data.extend_from_slice(b"half a frame");
        }
        let reference = events(&data[..]);
        let cuts: Vec<usize> = (0..data.len()).collect();
        let bytewise = events(Chunked { data, cuts, pos: 0 });
        prop_assert_eq!(reference, bytewise);
    }
}

#[test]
fn torn_tail_appears_exactly_once_at_eof() {
    let evs = events(&b"ok\nleftover"[..]);
    assert_eq!(
        evs,
        vec![Ev::Line("ok".into()), Ev::Torn, Ev::Eof],
        "a non-empty partial line at close must surface as Torn"
    );
}

#[test]
fn binary_frames_survive_any_split() {
    let payload = vec![0x00, 0x0A, MAGIC, b'{', 0xFF]; // worst-case bytes
    let mut data = bin_frame(&payload);
    data.extend_from_slice(b"req-1\n");
    data.extend_from_slice(&bin_frame(b""));
    let reference = events(&data[..]);
    assert_eq!(
        reference,
        vec![
            Ev::Binary(payload),
            Ev::Line("req-1".into()),
            Ev::Binary(vec![]),
            Ev::Eof
        ]
    );
    for cut in 0..data.len() {
        let chunked = events(Chunked {
            data: data.clone(),
            cuts: vec![cut],
            pos: 0,
        });
        assert_eq!(chunked, reference, "divergence at cut {cut}");
    }
}

/// A corrupt declared length must not allocate gigabytes: the reader
/// reports `Corrupt`, performs a bounded skip to the next plausible
/// frame boundary, and picks up the following frames.
#[test]
fn corrupt_binary_length_resyncs_without_allocating() {
    // Declares ~4 GiB; only the real bytes are ever buffered.
    let mut data = vec![MAGIC];
    data.extend_from_slice(&u32::MAX.to_le_bytes());
    data.extend_from_slice(b"stray bytes\n");
    data.extend_from_slice(b"after\n");
    data.extend_from_slice(&bin_frame(b"ok"));
    let reference = events(&data[..]);
    assert_eq!(
        reference,
        vec![
            Ev::Corrupt,
            Ev::Line("after".into()),
            Ev::Binary(b"ok".to_vec()),
            Ev::Eof
        ]
    );
    for cut in 0..data.len() {
        let chunked = events(Chunked {
            data: data.clone(),
            cuts: vec![cut],
            pos: 0,
        });
        assert_eq!(chunked, reference, "divergence at cut {cut}");
    }
}

/// Resync may also land on a raw `MAGIC` byte (no newline in between):
/// the next binary frame is picked up directly.
#[test]
fn corrupt_binary_resyncs_to_next_magic() {
    let mut data = vec![MAGIC];
    data.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    data.extend_from_slice(&[0x01, 0x02, 0x03]); // junk without newline
    data.extend_from_slice(&bin_frame(b"next"));
    let evs = events(&data[..]);
    assert_eq!(
        evs,
        vec![Ev::Corrupt, Ev::Binary(b"next".to_vec()), Ev::Eof]
    );
}

#[test]
fn partial_binary_frame_at_eof_is_torn() {
    let mut data = bin_frame(b"whole");
    data.extend_from_slice(&[MAGIC, 0x05, 0x00]); // header cut short
    let evs = events(&data[..]);
    assert_eq!(evs, vec![Ev::Binary(b"whole".to_vec()), Ev::Torn, Ev::Eof]);
}

#[test]
fn oversized_then_valid_resyncs_under_any_split() {
    let mut data = vec![b'y'; MAX_FRAME + 33];
    data.push(b'\n');
    data.extend_from_slice(b"after\n");
    let reference = events(&data[..]);
    assert_eq!(
        reference,
        vec![Ev::TooLong, Ev::Line("after".into()), Ev::Eof]
    );
    // Splits around every interesting boundary, including the newline
    // straddling two reads.
    for cut in [1, MAX_FRAME, MAX_FRAME + 33, MAX_FRAME + 34, MAX_FRAME + 35] {
        let chunked = events(Chunked {
            data: data.clone(),
            cuts: vec![cut],
            pos: 0,
        });
        assert_eq!(chunked, reference, "divergence at cut {cut}");
    }
}

/// Renders scripted segments for a framer capped at `cap`, with the
/// sorted, distinct cut points `cut_seeds` pick in it.
fn script(segments: &[(u32, u32)], cut_seeds: &[u64], cap: usize) -> (Vec<u8>, Vec<usize>) {
    let mut data = Vec::new();
    for &(kind, param) in segments {
        data.extend_from_slice(&segment_bytes(kind, param, cap));
    }
    let mut cuts: Vec<usize> = cut_seeds
        .iter()
        .map(|&s| (s % (data.len() as u64 + 1)) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    (data, cuts)
}

/// The chunking property on the bare framer: any split gives the
/// one-read sequence, which under `MAX_FRAME` is also the reader's.
fn framer_chunking_holds(
    segments: &[(u32, u32)],
    cut_seeds: &[u64],
    cap: usize,
) -> Result<(), TestCaseError> {
    let (data, cuts) = script(segments, cut_seeds, cap);
    let reference = framer_events(&data, &[], cap);
    let chunked = framer_events(&data, &cuts, cap);
    prop_assert_eq!(
        &reference,
        &chunked,
        "event divergence with cuts {:?}",
        cuts
    );
    if cap == MAX_FRAME {
        prop_assert_eq!(&events(&data[..]), &reference);
    }
    prop_assert_eq!(reference.iter().filter(|e| **e == Ev::Eof).count(), 1);
    prop_assert_eq!(reference.last(), Some(&Ev::Eof));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn the_framer_is_chunking_invariant_under_max_frame(
        segments in prop::collection::vec((0u32..7, any::<u32>()), 1..6),
        cut_seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        framer_chunking_holds(&segments, &cut_seeds, MAX_FRAME)?;
    }
}

proptest! {
    // Fewer cases: an oversized segment under this cap is over 21 MB.
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn the_framer_is_chunking_invariant_under_max_reply(
        segments in prop::collection::vec((0u32..7, any::<u32>()), 1..6),
        cut_seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        framer_chunking_holds(&segments, &cut_seeds, MAX_REPLY)?;
    }
}

#[test]
fn the_framer_resyncs_after_an_oversized_line_under_both_caps() {
    for cap in [MAX_FRAME, MAX_REPLY] {
        let mut data = vec![b'y'; cap + 33];
        data.push(b'\n');
        data.extend_from_slice(b"after\n");
        let want = vec![Ev::TooLong, Ev::Line("after".into()), Ev::Eof];
        for cut in [None, Some(1), Some(cap), Some(cap + 33), Some(cap + 34)] {
            let got = framer_events(&data, cut.as_slice(), cap);
            assert_eq!(got, want, "cap {cap}, cut {cut:?}");
        }
        // A line of exactly the cap is a frame.
        let mut data = vec![b'y'; cap];
        data.push(b'\n');
        match &framer_events(&data, &[], cap)[..] {
            [Ev::Line(line), Ev::Eof] => assert_eq!(line.len(), cap),
            other => panic!("cap {cap}: a line at the cap gave {:?}", &other[..1]),
        }
    }
}

#[test]
fn the_framer_resyncs_after_a_corrupt_length_under_both_caps() {
    for cap in [MAX_FRAME, MAX_REPLY] {
        // One corrupt length resyncs on a newline, a second on a magic
        // byte; neither allocates what it declares.
        let mut data = vec![MAGIC];
        data.extend_from_slice(&(cap as u32 + 1).to_le_bytes());
        data.extend_from_slice(b"stray bytes\nafter\n");
        data.extend_from_slice(&bin_frame(b"ok"));
        data.push(MAGIC);
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&[0x01, 0x02]);
        data.extend_from_slice(&bin_frame(b"next"));
        let want = vec![
            Ev::Corrupt,
            Ev::Line("after".into()),
            Ev::Binary(b"ok".to_vec()),
            Ev::Corrupt,
            Ev::Binary(b"next".to_vec()),
            Ev::Eof,
        ];
        for cut in 0..=data.len() {
            assert_eq!(
                framer_events(&data, &[cut], cap),
                want,
                "cap {cap}, cut {cut}"
            );
        }
        // A declared length of exactly the cap is a frame.
        let payload = vec![0x5a; cap];
        let got = framer_events(&bin_frame(&payload), &[], cap);
        assert!(got == [Ev::Binary(payload), Ev::Eof], "cap {cap}");
    }
}
