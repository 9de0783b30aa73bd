package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestReadChunkRoundTrip(t *testing.T) {
	want := Read{ID: 777, Space: SpaceChunks, Chunk: 42, Count: 3}
	buf := want.Encode(nil)
	if len(buf) != ReadSize {
		t.Errorf("size = %d", len(buf))
	}
	if typ, err := PeekType(buf); err != nil || typ != MsgRead {
		t.Fatalf("PeekType = %v, %v", typ, err)
	}
	got, err := DecodeRead(buf)
	if err != nil || got != want {
		t.Errorf("got %+v, %v", got, err)
	}
	if _, err := DecodeRead(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil err = %v", err)
	}
}

func TestReadVersionsRoundTrip(t *testing.T) {
	want := Read{ID: 77, Space: SpaceVersions, Chunk: 1234, Count: 1}
	buf := want.Encode(nil)
	if got, err := DecodeRead(buf); err != nil || got != want {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeRead(buf[:ReadSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Error("short read should fail")
	}
	buf[0] = byte(MsgReadData)
	if _, err := DecodeRead(buf); !errors.Is(err, ErrCorrupt) {
		t.Error("wrong type should fail")
	}
}

// readData is a READ_DATA message carrying body.
func readData(id uint64, status uint8, body []byte) []byte {
	msg, dst := AppendRawReply(nil, id, status, len(body))
	copy(dst, body)
	return msg
}

func TestChunkDataRoundTrip(t *testing.T) {
	raw := []byte{1, 2, 3, 4, 5}
	buf := readData(9, StatusOK, raw)
	if len(buf) != readDataHeader+len(raw) {
		t.Errorf("size = %d, want %d", len(buf), readDataHeader+len(raw))
	}
	id, status, body, err := DecodeRawReply(buf)
	if err != nil || id != 9 || status != StatusOK || !bytes.Equal(body, raw) {
		t.Fatalf("got %d %d %v, %v", id, status, body, err)
	}
	// The body aliases the input frame (documented).
	buf[len(buf)-1] = 99
	if body[4] != 99 {
		t.Error("body should alias the frame")
	}
	if _, _, _, err := DecodeRawReply(buf[:8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short err = %v", err)
	}
	if _, _, _, err := DecodeRawReply(buf[:len(buf)-2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated err = %v", err)
	}
}

func TestChunkDataEmpty(t *testing.T) {
	buf := readData(1, StatusError, nil)
	if _, status, body, err := DecodeRawReply(buf); err != nil || len(body) != 0 || status != StatusError {
		t.Errorf("got status %d, %d bytes, %v", status, len(body), err)
	}
}

func TestVersionDataRoundTrip(t *testing.T) {
	versions := make([]byte, 512)
	for i := range versions {
		versions[i] = byte(i)
	}
	buf := readData(9, StatusOK, versions)
	if typ, err := PeekType(buf); err != nil || typ != MsgReadData {
		t.Fatalf("PeekType = %v, %v", typ, err)
	}
	if typ, id, err := PeekID(buf); err != nil || typ != MsgReadData || id != 9 {
		t.Fatalf("PeekID = %v, %d, %v", typ, id, err)
	}
	if _, _, body, err := DecodeRawReply(buf); err != nil || !bytes.Equal(body, versions) {
		t.Errorf("round trip mismatch: %v", err)
	}
	buf[0] = byte(MsgResponse)
	if _, _, _, err := DecodeRawReply(buf); !errors.Is(err, ErrCorrupt) {
		t.Error("a reply of another type should fail")
	}
}
