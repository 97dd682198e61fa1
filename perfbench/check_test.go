package main

import (
	"io"
	"strings"
	"testing"
)

// TestPlantedDropFailsCheck runs the shortest rider-mix twice: clean, and
// with one report dropped by the generator while it claims to have sent it.
// The correctness check must pass the first and fail the second, and the
// command must exit non-zero on the second.
func TestPlantedDropFailsCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant string
		code  int
	}{
		{"clean", "-1", 0},
		{"dropped report", "5", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			code := benchMain([]string{
				"--workload", "rider-mix", "--seed", "1", "--seconds", "1",
				"--out", t.TempDir(), "--spec", "../BENCHMARK.json", "--plant", tc.plant,
			}, &out, io.Discard)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d; output:\n%s", code, tc.code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			last := lines[len(lines)-1]
			wantCorrect := `"correct":` + map[bool]string{true: "true", false: "false"}[tc.code == 0]
			if !strings.HasPrefix(last, "{"+wantCorrect) {
				t.Fatalf("result line %q, want %s", last, wantCorrect)
			}
			if tc.code != 0 && !strings.Contains(out.String(), "MISMATCH") {
				t.Fatalf("no mismatch reported:\n%s", out.String())
			}
		})
	}
}
