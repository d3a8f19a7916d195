package experiments

import (
	"reflect"
	"testing"
)

// TestSelect pins -exp resolution: the registry's names are unique and
// only observed and chaos are traced, "quick" drops exactly the Slow
// entries, a list keeps its order, and an unknown name is an error.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	slow := 0
	for _, e := range all {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Slow {
			slow++
		}
		if e.Traced != (e.Name == "observed" || e.Name == "chaos") {
			t.Errorf("%s: Traced = %v", e.Name, e.Traced)
		}
	}
	quick, err := Select("quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(quick) != len(all)-slow {
		t.Fatalf("quick has %d entries, want %d", len(quick), len(all)-slow)
	}
	for _, e := range quick {
		if e.Slow {
			t.Errorf("quick selects slow entry %q", e.Name)
		}
	}
	list, err := Select("fig9,fig1")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(list); !reflect.DeepEqual(got, []string{"fig9", "fig1"}) {
		t.Fatalf("list = %v", got)
	}
	if _, err := Select("fig1,nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunStampsReport: an entry's Run returns the one report type under
// the entry's name, with its tables and rows.
func TestRunStampsReport(t *testing.T) {
	sel, err := Select("fig1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sel[0].Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fig1" || len(rep.Tables) != 1 {
		t.Fatalf("report %q with %d tables", rep.Name, len(rep.Tables))
	}
	if rows, ok := rep.Rows.([]Breakdown); !ok || len(rows) != len(rep.Tables[0].Rows) {
		t.Fatalf("rows %T do not match the table", rep.Rows)
	}
}
