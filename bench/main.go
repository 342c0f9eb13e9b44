// Command bench is the repository's benchmark: four named workloads,
// the end-to-end metrics a user of the system would see, and per-layer
// numbers measured from outside the program. See README.md.
//
//	go run -C bench . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object with the run's
// metrics; the exit code is non-zero when a correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// benchEnv is where the benchmark builds and runs the program: inside
// the checkout, under .bench_build/.
type benchEnv struct {
	runDir     string // this run's logs, wire epochs and span log
	serverBin  string
	gatewayBin string
	buildS     float64
}

// findRoot locates the checkout from the working directory (the root
// itself, or bench/ under `go run -C bench`).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "detmt-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/detmt-server not found from %s: run from the repository root or from bench/", wd)
}

// prepare builds the shipped binaries from source and makes an empty run
// directory.
func prepare(workload string, seed uint64, traced int) (*benchEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	env := &benchEnv{
		runDir:     filepath.Join(build, "run", fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traced)),
		serverBin:  filepath.Join(build, "bin", "detmt-server"),
		gatewayBin: filepath.Join(build, "bin", "detmt-gateway"),
	}
	if err := os.RemoveAll(env.runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.runDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(build, "bin")+string(filepath.Separator),
		"./cmd/detmt-server", "./cmd/detmt-gateway")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build of the shipped binaries: %v\n%s", err, out)
	}
	env.buildS = time.Since(t0).Seconds()
	return env, nil
}

func main() {
	workload := flag.String("workload", "all", "sim-fig1, tcp3-fig1, tcp3-families, gw-kv, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 18, "measured window per workload, seconds")
	traced := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	all := []string{"sim-fig1"}
	runners := map[string]func(*benchEnv) (*report, error){
		"sim-fig1": func(env *benchEnv) (*report, error) {
			return runSimFig1(env, *seed, *seconds, *traced == 1)
		},
	}
	for _, wl := range socketWorkloads() {
		wl := wl
		all = append(all, wl.name)
		runners[wl.name] = func(env *benchEnv) (*report, error) {
			return runSocket(env, wl, *seed, *seconds, *traced == 1)
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = all
	} else if runners[*workload] == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v, or all)\n", *workload, all)
		os.Exit(2)
	}

	// An interrupted benchmark still stops every process it started.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		os.Exit(130)
	}()

	exit := 0
	for _, name := range names {
		env, err := prepare(name, *seed, *traced)
		var rep *report
		if err == nil {
			rep, err = runners[name](env)
		}
		if err == nil {
			err = rep.print(os.Stdout, name, *traced == 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !rep.correct {
			exit = 1
		}
	}
	os.Exit(exit)
}
