package x10rt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the outer framing of the TCP transport. Every frame on a
// connection opens with the same six-byte header:
//
//	+-------+---------+----------------------+----------------+
//	| magic | version | length (4 bytes, BE) | payload        |
//	+-------+---------+----------------------+----------------+
//
// Two versions exist: 4, the codec batch (codecframe.go), which carries
// active messages, and 5, the one-sided frame (onesided.go), which
// carries RDMA-style puts, gets and remote atomics. The length field is
// validated against MaxFrameSize before any allocation, so a corrupt
// header costs at most a rejected connection, never memory; any other
// version tears the connection down. The decoders are fuzzed
// (codec_fuzz_test.go, frame_fuzz_test.go) with the corpora
// committed under testdata/fuzz.

const (
	// frameMagic opens every frame; a mismatch means the stream is
	// desynchronized or the peer speaks another protocol.
	frameMagic = 0xA7
	// frameHeaderSize is magic + version + 4-byte big-endian length.
	frameHeaderSize = 6
	// MaxFrameSize bounds a frame's payload. Runtime control messages are
	// tiny and data payloads are modeled, not shipped, so 16 MiB is
	// generous; anything larger is treated as stream corruption.
	MaxFrameSize = 16 << 20
)

// ErrFrameCorrupt is returned when a frame header fails validation.
var ErrFrameCorrupt = errors.New("x10rt: corrupt frame")

// readFrameHeader reads and validates one frame header from r,
// returning the frame's version and payload length. Only versions 4
// and 5 are accepted.
func readFrameHeader(r io.Reader) (version byte, n int, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	if hdr[0] != frameMagic {
		return 0, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrFrameCorrupt, hdr[0])
	}
	if hdr[1] != batchVersionCodec && hdr[1] != frameVersionOneSided {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrFrameCorrupt, hdr[1])
	}
	length := binary.BigEndian.Uint32(hdr[2:6])
	if length > MaxFrameSize {
		return 0, 0, fmt.Errorf("%w: length %d exceeds max %d", ErrFrameCorrupt, length, MaxFrameSize)
	}
	return hdr[1], int(length), nil
}
