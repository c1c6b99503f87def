package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"parj/internal/rdf"
)

// frame.go — the wire format of the log.
//
// Segment files open with an 8-byte header ("PARJWAL1") and continue with
// frames. Every frame is independently verifiable:
//
//	[u32 frameMagic][u32 payloadLen][u32 crc32(payload)][payload]
//
// and the payload is one Record:
//
//	u64 seq
//	u32 nInserts, then nInserts triples
//	u32 nDeletes, then nDeletes triples
//	triple = 3 × (u32 len, bytes)  // S, P, O
//
// Decoding is incremental and bounds-checked against the frame length, so
// hostile length prefixes cannot drive allocations past the data actually
// present — the same discipline as the snapshot reader.

// ErrCorruptWAL reports log damage that cannot be explained by a crash
// mid-append: a bad frame with valid frames after it, a damaged segment
// header, a sequence discontinuity, or an undecodable CRC-valid payload.
// A torn tail — a damaged suffix of the final segment with nothing valid
// after it — is not corruption; Open repairs it by truncation.
var ErrCorruptWAL = errors.New("wal: corrupt log")

const (
	segHeader   = "PARJWAL1"
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".snap"
	tmpSuffix   = ".tmp"
	frameMagic  = 0x50414A57 // "PAJW"
	frameHdrLen = 12
	// maxFramePayload bounds a single record frame; mirrors the write
	// path's request cap with generous headroom.
	maxFramePayload = 64 << 20
)

// Record is one sequenced write batch: deletes are applied before
// inserts, the order the replication contract fixes. It is the module's one
// batch type: the /write request body (remote.WriteRequest is an alias), the
// coordinator's replay log and this log's frames all carry it. Seq 0 on the
// wire means "next" (the unsequenced single-node path); the log itself only
// holds positive sequences.
type Record struct {
	Seq     uint64       `json:"seq,omitempty"`
	Inserts []rdf.Triple `json:"inserts,omitempty"`
	Deletes []rdf.Triple `json:"deletes,omitempty"`
}

func segName(start uint64) string              { return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix) }
func ckptName(seq uint64) string               { return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix) }
func parseSegName(name string) (uint64, bool)  { return parseSeqName(name, segPrefix, segSuffix) }
func parseCkptName(name string) (uint64, bool) { return parseSeqName(name, ckptPrefix, ckptSuffix) }

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range []byte(name[len(prefix) : len(prefix)+16]) {
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptWAL, fmt.Sprintf(format, args...))
}

// appendRecord encodes rec as one frame (header + payload) onto buf.
func appendRecord(buf []byte, rec Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	var err error
	if buf, err = appendTriples(buf, rec.Inserts); err != nil {
		return nil, err
	}
	if buf, err = appendTriples(buf, rec.Deletes); err != nil {
		return nil, err
	}
	payloadLen := len(buf) - start - frameHdrLen
	if payloadLen > maxFramePayload {
		return nil, fmt.Errorf("wal: record %d exceeds frame cap (%d bytes)", rec.Seq, payloadLen)
	}
	binary.LittleEndian.PutUint32(buf[start:], frameMagic)
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[start+8:], crc32.ChecksumIEEE(buf[start+frameHdrLen:]))
	return buf, nil
}

func appendTriples(buf []byte, ts []rdf.Triple) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for _, t := range ts {
		for _, s := range [3]string{t.S, t.P, t.O} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf, nil
}

// decodeRecord parses a CRC-validated frame payload. Any malformation
// here is corruption: the checksum matched, so the bytes are what the
// writer produced.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if len(payload) < 8 {
		return rec, corruptf("record payload too short (%d bytes)", len(payload))
	}
	rec.Seq = binary.LittleEndian.Uint64(payload)
	rest := payload[8:]
	var err error
	if rec.Inserts, rest, err = decodeTriples(rest); err != nil {
		return rec, err
	}
	if rec.Deletes, rest, err = decodeTriples(rest); err != nil {
		return rec, err
	}
	if len(rest) != 0 {
		return rec, corruptf("record %d: %d trailing payload bytes", rec.Seq, len(rest))
	}
	return rec, nil
}

func decodeTriples(b []byte) ([]rdf.Triple, []byte, error) {
	if len(b) < 4 {
		return nil, nil, corruptf("truncated triple count")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n == 0 {
		return nil, b, nil
	}
	// Each triple needs at least 12 bytes of length prefixes; bound the
	// allocation by what the payload can actually hold.
	if n > len(b)/12 {
		return nil, nil, corruptf("triple count %d exceeds payload", n)
	}
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		var parts [3]string
		for j := 0; j < 3; j++ {
			if len(b) < 4 {
				return nil, nil, corruptf("truncated term length")
			}
			sz := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if sz > len(b) {
				return nil, nil, corruptf("term length %d exceeds payload", sz)
			}
			parts[j] = string(b[:sz])
			b = b[sz:]
		}
		ts = append(ts, rdf.Triple{S: parts[0], P: parts[1], O: parts[2]})
	}
	return ts, b, nil
}

// scanFrames walks the frames of segment data (header included),
// invoking fn for each valid frame payload in order. lenientTail selects
// crash semantics for the final segment: an invalid region with no valid
// frame after it is a torn tail, and scanning stops there cleanly. The
// returned validLen is the byte offset of the first non-valid data —
// what a repair truncates to. With lenientTail false, any anomaly is
// ErrCorruptWAL.
func scanFrames(data []byte, lenientTail bool, fn func(payload []byte) error) (validLen int, err error) {
	if len(data) < len(segHeader) {
		if lenientTail {
			return 0, nil // torn segment creation: header never fully landed
		}
		return 0, corruptf("segment shorter than header (%d bytes)", len(data))
	}
	if string(data[:len(segHeader)]) != segHeader {
		return 0, corruptf("bad segment header")
	}
	off := len(segHeader)
	for off < len(data) {
		frameEnd, payload, ok := parseFrameAt(data, off)
		if !ok {
			if lenientTail && !anyValidFrame(data, off+1) {
				return off, nil // torn tail: truncate here
			}
			return off, corruptf("bad frame at offset %d", off)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off = frameEnd
	}
	return off, nil
}

// parseFrameAt validates the frame starting at off: magic, a sane
// length, full presence in data, and the payload checksum.
func parseFrameAt(data []byte, off int) (end int, payload []byte, ok bool) {
	if off+frameHdrLen > len(data) {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(data[off:]) != frameMagic {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[off+4:]))
	if n > maxFramePayload || off+frameHdrLen+n > len(data) {
		return 0, nil, false
	}
	crc := binary.LittleEndian.Uint32(data[off+8:])
	payload = data[off+frameHdrLen : off+frameHdrLen+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, false
	}
	return off + frameHdrLen + n, payload, true
}

// anyValidFrame reports whether a complete, checksum-valid frame starts
// anywhere at or after from — the discriminator between a torn tail (no)
// and mid-log corruption (yes).
func anyValidFrame(data []byte, from int) bool {
	for i := from; i+frameHdrLen <= len(data); i++ {
		if binary.LittleEndian.Uint32(data[i:]) != frameMagic {
			continue
		}
		if _, _, ok := parseFrameAt(data, i); ok {
			return true
		}
	}
	return false
}
