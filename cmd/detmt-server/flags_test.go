package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const repoRoot = "../.."

func registered() map[string]bool {
	fs := flag.NewFlagSet("detmt-server", flag.ContinueOnError)
	flags(fs)
	out := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = true })
	return out
}

func readAll(t *testing.T, patterns ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range patterns {
		paths, err := filepath.Glob(filepath.Join(repoRoot, p))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[path] = string(b)
		}
	}
	if len(out) == 0 {
		t.Fatalf("nothing matches %v", patterns)
	}
	return out
}

// TestEveryFlagIsPassedSomewhere is the rule that keeps the flag set from
// growing back: a flag exists because a walkthrough, a script, a harness
// experiment, the benchmark or a test passes it. One that nothing passes
// is an option nobody has ever run; retire it.
func TestEveryFlagIsPassedSomewhere(t *testing.T) {
	corpus := readAll(t, "README.md", "DESIGN.md", "EXPERIMENTS.md", "scripts/*", "internal/harness/*.go",
		"bench/*.go", "bench/*.sh", "internal/*/*_test.go")
	var unused []string
	for name := range registered() {
		use := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
		found := false
		for _, text := range corpus {
			if found = use.MatchString(text); found {
				break
			}
		}
		if !found {
			unused = append(unused, "-"+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("flags no walkthrough, script, experiment, benchmark or test passes: %v", unused)
	}
}

// TestEveryPassedFlagIsRegistered reads the other direction: what the
// benchmark, the harness experiments and the scripts hand detmt-server
// must parse, or the child exits 2 at boot.
func TestEveryPassedFlagIsRegistered(t *testing.T) {
	reg := registered()
	// The same files start two other programs; these are theirs.
	notOurs := map[string]string{
		"servers": "detmt-gateway (bench/cluster.go)",
		"epochs":  "detmt-gateway (bench/cluster.go)",
		"o":       "go build (internal/harness/loadexp.go)",
	}
	check := func(path, name string) {
		if !reg[name] && notOurs[name] == "" {
			t.Errorf("%s passes -%s, which detmt-server does not register", path, name)
		}
	}
	literal := regexp.MustCompile(`"-([a-z][a-z0-9-]*)"`)
	for path, text := range readAll(t, "bench/cluster.go", "bench/workloads.go", "internal/harness/loadexp.go") {
		for _, m := range literal.FindAllStringSubmatch(text, -1) {
			check(path, m[1])
		}
	}
	// In a script: the words after a detmt-server binary, up to the next
	// program or redirection, backslash continuations included.
	token := regexp.MustCompile(`(^|\s)-([a-z][a-z0-9-]*)`)
	for path, text := range readAll(t, "scripts/*.sh") {
		lines := strings.Split(text, "\n")
		for i := 0; i < len(lines); i++ {
			_, args, ok := strings.Cut(lines[i], "detmt-server")
			if !ok || strings.Contains(lines[i], "go build") {
				continue
			}
			for strings.HasSuffix(args, "\\") && i+1 < len(lines) {
				i++
				args = strings.TrimSuffix(args, "\\") + lines[i]
			}
			if cut := strings.IndexAny(args, "+|>)"); cut >= 0 {
				args = args[:cut]
			}
			for _, m := range token.FindAllStringSubmatch(args, -1) {
				check(path, m[2])
			}
		}
	}
}

// TestRetiredFlagsAreUsageErrors: a flag this binary used to take is
// rejected (flag.ExitOnError turns that into exit status 2 in main), never
// silently accepted.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, name := range []string{
		"adaptive-tick", "min-tick", "max-tick", "batch-threshold", "no-group-commit", "pipeline-depth",
		"nested-retries", "nested-backoff", "pds-window", "pds-relaxed", "kv-buckets", "epoch",
		"seq-retention", "gossip", "vnodes", "budget",
	} {
		fs := flag.NewFlagSet("detmt-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(fs)
		if err := fs.Parse([]string{"-" + name + "=1"}); err == nil {
			t.Errorf("-%s still parses", name)
		}
	}
}
