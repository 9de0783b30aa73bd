package server

import (
	"encoding/binary"
	"math"
	"testing"
)

// encodeMailbox builds a heartbeat mailbox image.
func encodeMailbox(util float64, rootVer, seq uint64, txUtil float64) []byte {
	b := make([]byte, HeartbeatMailboxSize)
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(util))
	binary.LittleEndian.PutUint64(b[8:], rootVer)
	binary.LittleEndian.PutUint64(b[16:], seq)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(txUtil))
	return b
}

// TestHeartbeatMailboxWidening pins the 32-byte layout word by word, and
// that any shorter image — one byte short included — decodes to the zero
// view ("no heartbeat yet") rather than to some of its words.
func TestHeartbeatMailboxWidening(t *testing.T) {
	img := encodeMailbox(0.75, 42, 7, 0.9)
	if v := DecodeHeartbeatMailbox(img); v != (HeartbeatView{Util: 0.75, RootVer: 42, Seq: 7, TXUtil: 0.9}) {
		t.Fatalf("view = %+v", v)
	}
	for _, short := range [][]byte{img[:HeartbeatMailboxSize-1], img[:8], nil} {
		if v := DecodeHeartbeatMailbox(short); v != (HeartbeatView{}) {
			t.Fatalf("%d-byte image decoded to %+v, want the zero view", len(short), v)
		}
	}
}

// TestHeartbeatMailboxSeqWraparound checks that the sequence word survives
// a wrap: liveness trackers detect arrival by change, so MaxUint64 → 0 must
// decode as two distinct values, not saturate.
func TestHeartbeatMailboxSeqWraparound(t *testing.T) {
	before := DecodeHeartbeatMailbox(encodeMailbox(0.5, 1, math.MaxUint64, 0.1))
	if before.Seq != math.MaxUint64 {
		t.Fatalf("seq = %d, want MaxUint64", before.Seq)
	}
	after := DecodeHeartbeatMailbox(encodeMailbox(0.5, 1, 0, 0.1))
	if after.Seq != 0 {
		t.Fatalf("wrapped seq = %d, want 0", after.Seq)
	}
	if before.Seq == after.Seq {
		t.Fatal("wraparound not observable as a change")
	}
}
