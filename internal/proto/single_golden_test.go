package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/telemetry"
)

// TestSingleIssueSnapshotGolden pins single-issue walks with the node and
// root caches to testdata/single-issue-golden.json, captured while the
// single-issue walk was still a loop of its own, before it became the
// multi-issue loop with one read in flight. For each index, node-cache
// capacity (0, 8) and root-cache setting, driveRandom runs 1 000 queries;
// the row is the full counter snapshot and the final fake clock. The clock
// advances on every Charge, so a cache fill stamped before or after its
// node's examination shows up in lease expiries. A deliberate behaviour
// change regenerates the file from the "got" document this test prints.
func TestSingleIssueSnapshotGolden(t *testing.T) {
	type row struct {
		EndNs int64
		Stats telemetry.ClientSnapshot
	}
	got := map[string]row{}
	for _, index := range indexes {
		for _, cache := range []int{0, 8} {
			for _, root := range []bool{false, true} {
				r := newWalkRig(t, index, OpsConfig{CacheRoot: root}, cache)
				ft := r.fake()
				ft.charge = 7 * time.Microsecond
				driveRandom(t, r, 42)
				got[fmt.Sprintf("%s-cache%d-root-%v", index, cache, root)] = row{EndNs: int64(ft.now), Stats: r.stats()}
			}
		}
	}
	doc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/single-issue-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("single-issue runs diverge from testdata/single-issue-golden.json; got:\n%s", doc)
	}
}
