package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// The row frame: how a shard range's projected rows travel in
// ExecResponse.Frame.
//
//	version byte (frameVersion)
//	uvarint      column count
//	uvarint      row count
//	per column:  one uvarint per row, the zigzag delta to the previous
//	             row's ID in that column (the first row's to 0)
//	4 bytes      CRC-32C (Castagnoli), little endian, of everything above
//
// Column-wise deltas because shard results come out of sorted CSR tables:
// the leading columns ascend in runs, so most deltas fit one byte.

const frameVersion = 1

// frameOverhead is the shortest frame: version, two counts, CRC.
const frameOverhead = 1 + 1 + 1 + crc32.Size

// castagnoli is built on first use: the table is a few KB of heap that a
// process which never serves or decodes a frame should not carry.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// ErrCorruptFrame is the one error every undecodable row frame maps to:
// short, wrong version, failed CRC, counts the body cannot hold, an ID past
// uint32, trailing bytes. The client wraps it in a TransportError.
var ErrCorruptFrame = errors.New("remote: corrupt row frame")

// encodeFrame packs rows, each cols wide, into one frame.
func encodeFrame(rows [][]uint32, cols int) []byte {
	// Two bytes per value is the common case; append grows past it.
	b := make([]byte, 0, frameOverhead+2*binary.MaxVarintLen64+2*cols*len(rows))
	b = append(b, frameVersion)
	b = binary.AppendUvarint(b, uint64(cols))
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for c := 0; c < cols; c++ {
		prev := int64(0)
		for _, row := range rows {
			d := int64(row[c]) - prev
			prev = int64(row[c])
			b = binary.AppendUvarint(b, uint64(d<<1)^uint64(d>>63))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli()))
}

// decodeFrame verifies and unpacks a frame that must hold exactly want rows
// (ExecResponse.Count): it returns the rows back to back in one block and
// their width, and allocates nothing else. Nothing is allocated before the
// header is checked against the body: every value costs at least one byte,
// so cols × rows cannot exceed the body length, and a zero-column frame,
// whose rows cost nothing, is held to want. The block is empty, not nil,
// when the frame holds no values.
func decodeFrame(frame []byte, want int64) ([]uint32, int, error) {
	if len(frame) < frameOverhead || frame[0] != frameVersion {
		return nil, 0, fmt.Errorf("%w: %d bytes, not a version-%d frame", ErrCorruptFrame, len(frame), frameVersion)
	}
	body, sum := frame[:len(frame)-crc32.Size], binary.LittleEndian.Uint32(frame[len(frame)-crc32.Size:])
	if crc32.Checksum(body, castagnoli()) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	cols, n := binary.Uvarint(body[1:])
	nrows, m := binary.Uvarint(body[1+max(n, 0):])
	if n <= 0 || m <= 0 {
		return nil, 0, fmt.Errorf("%w: unterminated header", ErrCorruptFrame)
	}
	body = body[1+n+m:]
	if want < 0 || nrows != uint64(want) {
		return nil, 0, fmt.Errorf("%w: %d rows where the response counts %d", ErrCorruptFrame, nrows, want)
	}
	if nrows == 0 {
		cols = 0 // no values to read, whatever width the header names
	} else if cols > uint64(len(body))/nrows {
		return nil, 0, fmt.Errorf("%w: %d × %d values in %d bytes", ErrCorruptFrame, nrows, cols, len(body))
	}
	w := int(cols)
	block := make([]uint32, w*int(nrows))
	for c := 0; c < w; c++ {
		prev := int64(0)
		for i := c; i < len(block); i += w {
			u, n := binary.Uvarint(body)
			if n <= 0 {
				return nil, 0, fmt.Errorf("%w: truncated column %d", ErrCorruptFrame, c)
			}
			body = body[n:]
			prev += int64(u>>1) ^ -int64(u&1)
			if prev < 0 || prev > math.MaxUint32 {
				return nil, 0, fmt.Errorf("%w: ID out of range in column %d", ErrCorruptFrame, c)
			}
			block[i] = uint32(prev)
		}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(body))
	}
	return block, w, nil
}
