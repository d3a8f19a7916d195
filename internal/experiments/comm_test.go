package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"compso/internal/collective"
)

func TestCommBreakdownShape(t *testing.T) {
	rows, table, err := CommBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(table.Rows) != len(rows) {
		t.Fatalf("%d rows, table has %d", len(rows), len(table.Rows))
	}
	bestPerGroup := map[string]int{}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Fatalf("non-positive simulated time: %+v", r)
		}
		key := fmt.Sprintf("%s/%s/%d/%d", r.Platform, r.Op, r.Bytes, r.Workers)
		if r.Best {
			bestPerGroup[key]++
		}
	}
	for key, n := range bestPerGroup {
		if n != 1 {
			t.Fatalf("group %q has %d best rows", key, n)
		}
	}
	// Machine-readable: rows must round-trip through JSON (the -json flag
	// of compso-bench writes exactly this encoding).
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []CommRow
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) || back[0] != rows[0] {
		t.Fatal("JSON round-trip changed rows")
	}
	if !strings.Contains(table.String(), "hierarchical") {
		t.Fatal("rendered table missing hierarchical rows")
	}
}

func TestCommBreakdownHierarchicalWinsInterNode(t *testing.T) {
	// The paper's platforms are 4-GPU nodes: beyond 4 workers the
	// hierarchical all-reduce must beat the flat ring on both platforms at
	// every size — that is the schedule the autotuner is expected to pick
	// and the reason per-layer aggregated exchanges stay affordable.
	rows, _, err := CommBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range rows {
		if r.Op != collective.OpAllReduce || r.Workers <= 4 || !r.Best {
			continue
		}
		checked++
		if r.Algorithm != collective.AlgHierarchical {
			t.Errorf("%s p=%d %d bytes: best all-reduce is %s", r.Platform, r.Workers, r.Bytes, r.Algorithm)
		}
	}
	if checked == 0 {
		t.Fatal("no inter-node all-reduce rows")
	}
	// Within a single node the hierarchical schedule degenerates to a
	// reduce+broadcast tree. At small sizes its fewer α steps can win, but
	// at the bandwidth-bound 8 MB point the chunked ring must take over.
	for _, r := range rows {
		if r.Workers == 4 && r.Bytes == 1<<23 && r.Best && r.Op == collective.OpAllReduce &&
			r.Algorithm != collective.AlgRing {
			t.Errorf("single-node 8 MB all-reduce picked %s over ring: %+v", r.Algorithm, r)
		}
	}
}
