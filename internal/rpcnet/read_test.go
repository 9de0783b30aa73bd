package rpcnet

import (
	"bytes"
	"math"
	"testing"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/wire"
)

// FuzzServeRead drives the READ handler with arbitrary spaces and ranges
// against a small tree with a mailbox. It never panics; an OK reply carries
// exactly Count units of the space (chunk images or version words) and
// they are the region's bytes; a refusal carries no body.
func FuzzServeRead(f *testing.F) {
	srv, tree := lineServer(f, 300, ServerConfig{FetchSlots: 2, FetchSlotChunks: 4})
	slot, _ := srv.mailbox.Grant()
	if _, err := srv.mailbox.WriteResult(slot, bytes.Repeat([]byte{0xAB}, 5000)); err != nil {
		f.Fatal(err)
	}
	regs := [wire.NumSpaces]*region.Region{tree.Region(), tree.Region(), srv.mreg}
	root := uint32(tree.RootChunk())
	for _, s := range []struct {
		space        wire.Space
		chunk, count uint32
	}{
		{wire.SpaceChunks, root, 1}, {wire.SpaceChunks, 1, 5}, {wire.SpaceVersions, root, 1},
		{wire.SpaceVersions, 1, 3}, {wire.SpaceMailbox, uint32(slot * 4), 2}, {wire.NumSpaces, root, 1},
		{wire.SpaceChunks, 1, 0}, {wire.SpaceChunks, 1, maxSpanChunks + 1}, {wire.SpaceMailbox, 7, 2},
		{wire.SpaceChunks, math.MaxUint32, 2},
	} {
		f.Add(uint8(s.space), s.chunk, s.count)
	}
	f.Fuzz(func(t *testing.T, space uint8, chunk, count uint32) {
		req := wire.Read{ID: 7, Space: wire.Space(space), Chunk: chunk, Count: count}
		id, status, body, err := wire.DecodeRawReply(srv.read(req, nil))
		if err != nil || id != req.ID {
			t.Fatalf("%+v: reply id %d, err %v", req, id, err)
		}
		if status != wire.StatusOK {
			if len(body) != 0 {
				t.Fatalf("%+v: refusal %d carries %d bytes", req, status, len(body))
			}
			return
		}
		if req.Space >= wire.NumSpaces {
			t.Fatalf("%+v: unknown space served", req)
		}
		reg, versions := regs[req.Space], req.Space == wire.SpaceVersions
		unit := reg.ChunkSize()
		if versions {
			unit = reg.VersionsSize()
		}
		if len(body) != int(count)*unit {
			t.Fatalf("%+v: %d bytes, want %d × %d", req, len(body), count, unit)
		}
		want := make([]byte, unit)
		for i := 0; i < int(count); i++ {
			var err error
			if versions {
				err = reg.ReadVersions(int(chunk)+i, want)
			} else {
				err = reg.ReadChunkRaw(int(chunk)+i, want)
			}
			if err != nil || !bytes.Equal(body[i*unit:(i+1)*unit], want) {
				t.Fatalf("%+v: unit %d differs from the region's bytes (%v)", req, i, err)
			}
		}
	})
}
