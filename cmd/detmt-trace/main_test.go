package main

import (
	"errors"
	"strings"
	"testing"
)

// testdata/seed1.json is what `detmt-sim -seed 1 -clients 2 -requests 2
// -trace` writes (detmt-sim's test checks that it still does): the second
// half of the sim → trace pipeline.
const seed1 = "testdata/seed1.json"

func TestSummary(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{seed1}); err != nil {
		t.Fatal(err)
	}
	want := `testdata/seed1.json: 198 events, 4 threads
span: 1ms .. 50.5ms
consistency hash: 1339c17c0d808952
  admit        4
  start        4
  lockacq      40
  lockrel      40
  nestedbegin  4
  exit         4
  predicted    4
  promote      8
`
	if out.String() != want {
		t.Errorf("summary:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestCompareAgrees(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{seed1, seed1}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "traces agree: consistency hash 1339c17c0d808952\n") {
		t.Errorf("compare:\n%s", out.String())
	}
}

func TestArguments(t *testing.T) {
	for _, args := range [][]string{nil, {seed1, seed1, seed1}} {
		if err := run(&strings.Builder{}, args); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
	if err := run(&strings.Builder{}, []string{"testdata/missing.json"}); err == nil {
		t.Error("a missing trace is not an error")
	}
}
