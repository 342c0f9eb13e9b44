package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"detmt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden (and the generated .dmt inputs) from the current output")

// inputs are the committed objects the goldens analyse; a generated one
// must stay what its generator emits.
var inputs = []struct {
	name      string
	generated func() string
}{
	{"families", func() string { return workload.FamiliesSource(workload.DefaultFamilies()) }},
	{"kv", func() string { return workload.KVSource(workload.DefaultKV()) }},
	// The object of analysis.TestMutexSets / TestInterference.
	{"interference", nil},
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s.golden differs at line %d:\n  got  %s\n  want %s", name, i+1, g, w)
		}
	}
}

// TestGoldenFig4 pins the report on the built-in example: the paper's
// Fig. 4 transformation, which no refactor of the analysis may change.
func TestGoldenFig4(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	golden(t, "fig4", out.Bytes())
}

func TestGoldenInputs(t *testing.T) {
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			path := filepath.Join("testdata", in.name+".dmt")
			if in.generated != nil {
				if *update {
					if err := os.WriteFile(path, []byte(in.generated()), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				have, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(have) != in.generated() {
					t.Fatalf("%s is not what its generator emits any more; re-record with -update", path)
				}
			}
			var out bytes.Buffer
			if err := run(&out, []string{path}); err != nil {
				t.Fatal(err)
			}
			golden(t, in.name, out.Bytes())
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{filepath.Join("testdata", "absent.dmt")}); err == nil {
		t.Fatal("a missing file must be an error")
	}
	bad := filepath.Join(t.TempDir(), "bad.dmt")
	if err := os.WriteFile(bad, []byte("object X { method m() { helper(); } }"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, []string{bad}); err == nil || out.Len() != 0 {
		t.Fatalf("an object the analysis rejects must be an error with no report; err=%v out=%q", err, out.String())
	}
}
