package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareGOMAXPROCS checks that compare mode reads each row's
// GOMAXPROCS, or the file-level value for rows of older files that
// omit it, and fails a row whose value differs between the two files,
// printing both values.
func TestCompareGOMAXPROCS(t *testing.T) {
	write := func(name string, fileProcs, rowProcs int) string {
		data, err := json.Marshal(File{
			Schema:     "osars-bench/v1",
			GOMAXPROCS: fileProcs,
			Benchmarks: []Result{{Name: "ColdGreedySentences", N: 1, NsPerOp: 100, AllocsPerOp: 2, GOMAXPROCS: rowProcs}},
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name            string
		oldFile, oldRow int
		newFile, newRow int
		wantText        string
		wantFail        bool
	}{
		{"rows match", 1, 4, 2, 4, "all benchmarks within tolerance", false},
		{"older row falls back to file level", 1, 0, 1, 1, "all benchmarks within tolerance", false},
		{"older row mismatch", 1, 0, 2, 2, "FAIL (gomaxprocs 1 -> 2)", true},
		{"row mismatch", 1, 4, 1, 1, "FAIL (gomaxprocs 4 -> 1)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compareMode(&out, write("old", tc.oldFile, tc.oldRow), write("new", tc.newFile, tc.newRow), 0.25)
			if (err != nil) != tc.wantFail {
				t.Fatalf("compareMode error = %v, want failure: %v\n%s", err, tc.wantFail, out.String())
			}
			if !strings.Contains(out.String(), tc.wantText) {
				t.Fatalf("output lacks %q:\n%s", tc.wantText, out.String())
			}
		})
	}
}
