package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

const repoRoot = "../.."

func registered() map[string]bool {
	fs := flag.NewFlagSet("detmt-bench", flag.ContinueOnError)
	flags(fs)
	out := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = true })
	return out
}

// passed returns, by file, every flag the docs, scripts, Makefile and CI
// hand detmt-bench (the words after "detmt-bench " on a line, up to the
// end of a code span, a comment or a redirection), and every string
// literal of this package's tests that is a dash and a flag name.
func passed(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	read := func(pattern string, find func(text string) []string) {
		paths, err := filepath.Glob(filepath.Join(repoRoot, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("nothing matches %s", pattern)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[path] = append(out[path], find(string(b))...)
		}
	}
	invocation := regexp.MustCompile("detmt-bench[ \t]([^`#|>;)\n]*)")
	token := regexp.MustCompile(`(^|[\s/])-([a-z][a-z0-9-]*)`)
	commands := func(text string) (names []string) {
		for _, m := range invocation.FindAllStringSubmatch(text, -1) {
			for _, f := range token.FindAllStringSubmatch(m[1], -1) {
				names = append(names, f[2])
			}
		}
		return names
	}
	literal := regexp.MustCompile(`"-([a-z][a-z0-9-]*)"`)
	literals := func(text string) (names []string) {
		for _, m := range literal.FindAllStringSubmatch(text, -1) {
			names = append(names, m[1])
		}
		return names
	}
	for _, p := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "scripts/*", "Makefile", ".github/workflows/*.yml"} {
		read(p, commands)
	}
	read("cmd/detmt-bench/*_test.go", literals)
	return out
}

// TestEveryFlagIsPassedSomewhere is the rule that keeps the flag set from
// growing back: a flag exists because a doc, a script, the Makefile, CI
// or a test passes it. One that nothing passes is an option nobody has
// ever run; retire it.
func TestEveryFlagIsPassedSomewhere(t *testing.T) {
	used := map[string]bool{}
	for _, names := range passed(t) {
		for _, name := range names {
			used[name] = true
		}
	}
	var unused []string
	for name := range registered() {
		if !used[name] {
			unused = append(unused, "-"+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("flags no doc, script, Makefile, CI line or test passes: %v", unused)
	}
}

// TestEveryPassedFlagIsRegistered reads the other direction: what those
// files hand detmt-bench must parse, or the command exits 2.
func TestEveryPassedFlagIsRegistered(t *testing.T) {
	reg := registered()
	for path, names := range passed(t) {
		for _, name := range names {
			if !reg[name] {
				t.Errorf("%s passes detmt-bench -%s, which it does not register", path, name)
			}
		}
	}
}

// TestRetiredFlagsAreUsageErrors: a flag this binary used to take is
// rejected (flag.ExitOnError turns that into exit status 2 in main), never
// silently accepted.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, name := range []string{"json", "duration", "warmup"} {
		fs := flag.NewFlagSet("detmt-bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(fs)
		if err := fs.Parse([]string{"-" + name + "=1"}); err == nil {
			t.Errorf("-%s still parses", name)
		}
	}
}
