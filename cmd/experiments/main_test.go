package main

import (
	"testing"

	"contra"
)

func TestCompileSweepSmall(t *testing.T) {
	rows, err := compileSweep([]*contra.Topology{contra.Fattree(4, 0), contra.RandomTopology(50, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.CompileTime <= 0 || r.MaxStateBytes <= 0 {
			t.Errorf("row %+v has empty measurements", r)
		}
		if r.Policy == "CA" && r.Pids != 2 {
			t.Errorf("CA pids = %d, want 2", r.Pids)
		}
		if r.Policy == "WP" && r.TagBits < 1 {
			t.Errorf("WP tag bits = %d, want >= 1", r.TagBits)
		}
	}
}
