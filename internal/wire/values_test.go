package wire

import "testing"

// TestMsgTypeValues pins every MsgType to its number on the wire: a
// client and a server of different builds must agree on them, so no
// value may move or be reused. Unused: 7–15 and 24.
func TestMsgTypeValues(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  MsgType
		want uint8
	}{
		{"MsgSearch", MsgSearch, 1},
		{"MsgInsert", MsgInsert, 2},
		{"MsgDelete", MsgDelete, 3},
		{"MsgResponse", MsgResponse, 4},
		{"MsgHeartbeat", MsgHeartbeat, 5},
		{"MsgHello", MsgHello, 6},
		{"MsgBatch", MsgBatch, 16},
		{"MsgShardMap", MsgShardMap, 17},
		{"MsgShardMapData", MsgShardMapData, 18},
		{"MsgRead", MsgRead, 19},
		{"MsgReadData", MsgReadData, 20},
		{"MsgSearchFetch", MsgSearchFetch, 21},
		{"MsgFetchDesc", MsgFetchDesc, 22},
		{"MsgFetchAck", MsgFetchAck, 23},
		{"MsgReplicate", MsgReplicate, 25},
		{"MsgReplAck", MsgReplAck, 26},
		{"MsgPromote", MsgPromote, 27},
		{"MsgMove", MsgMove, 28},
		{"MsgKNN", MsgKNN, 29},
		{"MsgKNNFetch", MsgKNNFetch, 30},
	} {
		if uint8(c.typ) != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.typ, c.want)
		}
	}
}
