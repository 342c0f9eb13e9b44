// Command detmt-chaos is the fault-injection controller for a running
// detmt-server cluster. Servers started with -chaos expose their chaos
// injector on the control channel; this tool sends it commands — one
// shot (-cmd) or a seeded random plan (-plan) — and can poll replica
// status (-status), including the recovery state and divergence
// diagnostics the crash-recovery subsystem reports.
//
// Usage:
//
//	detmt-chaos -servers 1=127.0.0.1:7101,2=127.0.0.1:7102 -cmd sever
//	detmt-chaos -servers ... -target 2 -cmd "delay 5ms"
//	detmt-chaos -servers ... -target-role sequencer -cmd sever
//	detmt-chaos -servers ... -plan -seed 7 -duration 30s
//	detmt-chaos -servers ... -status
//
// It is also the membership controller: -member proposes runtime
// reconfiguration (the change rides the total order and activates on
// every replica at the same slot) or prints the agreed configuration:
//
//	detmt-chaos -servers ... -member "add 4=127.0.0.1:7104"
//	detmt-chaos -servers ... -member "remove 1"
//	detmt-chaos -servers ... -member "replace 2 5=127.0.0.1:7105"
//	detmt-chaos -servers ... -member status
//
// With -target backend it drives a detmt-backend process instead — the
// external-service side of the nested-invocation boundary:
//
//	detmt-chaos -target backend -backend 127.0.0.1:7200 -cmd "error-rate 0.2"
//	detmt-chaos -target backend -backend 127.0.0.1:7200 -cmd down
//	detmt-chaos -target backend -backend 127.0.0.1:7200 -status
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"detmt/internal/backend"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/shard"
	"detmt/internal/wire"
)

func main() {
	servers := flag.String("servers", "", "cluster members as id=addr,id=addr,...")
	targetFlag := flag.String("target", "0", `replica id to address (0: all listed servers), or "backend" to drive a detmt-backend process (see -backend)`)
	backendAddr := flag.String("backend", "", `detmt-backend address used with -target backend`)
	targetRole := flag.String("target-role", "", `resolve the target by role instead of id: "sequencer" polls status and targets the current view's sequencer`)
	cmd := flag.String("cmd", "", `one-shot chaos command: sever, "block <addr>", "unblock <addr>", "delay <dur>", heal, stats`)
	memberCmd := flag.String("member", "",
		`membership verb: "add <id>=<addr>", "remove <id>", "replace <old> <new>=<addr>", or "status" (proposals ride the total order and activate on every replica at the same slot)`)
	status := flag.Bool("status", false, "print each replica's status (recovery state, checkpoint age, diagnostics)")
	plan := flag.Bool("plan", false, "drive a seeded random fault plan instead of a one-shot command")
	seed := flag.Uint64("seed", 1, "plan seed (same seed + step count = same fault schedule)")
	duration := flag.Duration("duration", 30*time.Second, "how long to run the plan")
	step := flag.Duration("step", 250*time.Millisecond, "interval between plan fault decisions")
	pSever := flag.Float64("sever", 0.2, "per-step probability of a sever on a random replica")
	pDelay := flag.Float64("delay", 0.3, "per-step probability of a one-step read delay on a random replica")
	delayBy := flag.Duration("delay-by", 5*time.Millisecond, "read delay applied when the delay fault fires")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request control timeout")
	shardFlag := flag.Int("shard", -1,
		"address shard k of a multi-tenant deployment: -servers lists BASE addresses and each is offset to base port + k (negative: addresses are literal)")
	flag.Parse()

	if *targetFlag == "backend" {
		runBackendTarget(*backendAddr, *cmd, *status, *timeout)
		return
	}
	target := new(int)
	if n, err := strconv.Atoi(*targetFlag); err == nil && n >= 0 {
		*target = n
	} else {
		fmt.Fprintf(os.Stderr, "detmt-chaos: bad -target %q (want a replica id or \"backend\")\n", *targetFlag)
		os.Exit(2)
	}

	serverMap, err := ids.ParseReplicaAddrs(*servers)
	if err == nil && len(serverMap) == 0 {
		err = fmt.Errorf("empty server list")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-chaos: bad -servers: %v\n", err)
		os.Exit(2)
	}
	if *shardFlag >= 0 {
		for id, base := range serverMap {
			addr, err := shard.OffsetAddr(base, *shardFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "detmt-chaos: -shard %d: %v\n", *shardFlag, err)
				os.Exit(2)
			}
			serverMap[id] = addr
		}
	}
	tr, err := wire.NewTCP(wire.Options{Name: "chaos-ctl", Peers: serverMap})
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-chaos: %v\n", err)
		os.Exit(1)
	}
	defer tr.Close()

	if *targetRole != "" {
		if *targetRole != "sequencer" {
			fmt.Fprintf(os.Stderr, "detmt-chaos: unknown -target-role %q (supported: sequencer)\n", *targetRole)
			os.Exit(2)
		}
		if *target != 0 {
			fmt.Fprintln(os.Stderr, "detmt-chaos: -target and -target-role are mutually exclusive")
			os.Exit(2)
		}
		seq, err := resolveSequencer(tr, serverMap, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-chaos: resolving sequencer: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("target-role sequencer resolved to %v\n", seq)
		*target = int(seq)
	}

	targets := make([]ids.ReplicaID, 0, len(serverMap))
	for id := range serverMap {
		if *target == 0 || id == ids.ReplicaID(*target) {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "detmt-chaos: -target %d is not in -servers\n", *target)
		os.Exit(2)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	send := func(id ids.ReplicaID, req string) {
		b, err := tr.Control(id, []byte(req), *timeout)
		if err != nil {
			fmt.Printf("%v: ERROR %v\n", id, err)
			return
		}
		fmt.Printf("%v: %s\n", id, strings.TrimSpace(string(b)))
	}

	switch {
	case *memberCmd != "":
		runMemberVerb(send, targets, *memberCmd)
	case *status:
		for _, id := range targets {
			send(id, "status")
		}
	case *cmd != "":
		for _, id := range targets {
			send(id, "chaos "+*cmd)
		}
	case *plan:
		runPlan(send, targets, *seed, *duration, *step, *pSever, *pDelay, *delayBy)
	default:
		fmt.Fprintln(os.Stderr, "detmt-chaos: nothing to do (want -cmd, -member, -plan, or -status)")
		os.Exit(2)
	}
}

// runMemberVerb parses one membership verb and routes it: "status"
// prints every target's membership snapshot (epoch, config hash, voters,
// learners, pending changes); the mutating verbs are proposed through
// the FIRST target only — the proposal rides the total order, so one
// entry point reconfigures the whole cluster.
func runMemberVerb(send func(ids.ReplicaID, string), targets []ids.ReplicaID, verb string) {
	fields := strings.Fields(verb)
	if len(fields) == 0 {
		fmt.Fprintln(os.Stderr, `detmt-chaos: empty -member verb`)
		os.Exit(2)
	}
	if fields[0] == "status" {
		for _, id := range targets {
			send(id, "members")
		}
		return
	}
	var ch member.Change
	bad := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "detmt-chaos: -member: "+format+"\n", args...)
		os.Exit(2)
	}
	switch fields[0] {
	case "add":
		if len(fields) != 2 {
			bad(`want "add <id>=<addr>"`)
		}
		id, addr, err := parseIDAddr(fields[1])
		if err != nil {
			bad("%v", err)
		}
		ch = member.Change{Kind: member.Add, ID: id, Addr: addr}
	case "remove":
		if len(fields) != 2 {
			bad(`want "remove <id>"`)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			bad("%q is not a positive replica id", fields[1])
		}
		ch = member.Change{Kind: member.Remove, ID: ids.ReplicaID(n)}
	case "replace":
		if len(fields) != 3 {
			bad(`want "replace <old> <new>=<addr>"`)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			bad("%q is not a positive replica id", fields[1])
		}
		id, addr, err := parseIDAddr(fields[2])
		if err != nil {
			bad("%v", err)
		}
		ch = member.Change{Kind: member.Replace, ID: ids.ReplicaID(n), NewID: id, Addr: addr}
	default:
		bad("unknown verb %q (want add, remove, replace, or status)", fields[0])
	}
	blob, err := json.Marshal(ch)
	if err != nil {
		bad("%v", err)
	}
	send(targets[0], "memberchange "+string(blob))
}

// parseIDAddr splits one "<id>=<addr>" operand.
func parseIDAddr(s string) (ids.ReplicaID, string, error) {
	kv := strings.SplitN(s, "=", 2)
	if len(kv) != 2 || kv[1] == "" {
		return 0, "", fmt.Errorf("%q is not <id>=<addr>", s)
	}
	n, err := strconv.Atoi(kv[0])
	if err != nil || n <= 0 {
		return 0, "", fmt.Errorf("%q is not a positive replica id", kv[0])
	}
	return ids.ReplicaID(n), kv[1], nil
}

// runBackendTarget drives a detmt-backend process over its own control
// channel: -status prints the raw server stats JSON (call counters,
// idempotency cache, fault knobs), -cmd routes a fault command
// (error-rate/delay/down/up/heal/stats) to its chaos switchboard.
func runBackendTarget(addr, cmd string, status bool, timeout time.Duration) {
	if addr == "" {
		fmt.Fprintln(os.Stderr, `detmt-chaos: -target backend needs -backend <addr>`)
		os.Exit(2)
	}
	req := ""
	switch {
	case status:
		req = "status"
	case cmd != "":
		req = "chaos " + cmd
	default:
		fmt.Fprintln(os.Stderr, "detmt-chaos: nothing to do (want -cmd or -status)")
		os.Exit(2)
	}
	b, err := backend.Control(addr, req, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-chaos: backend %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Printf("backend %s: %s\n", addr, strings.TrimSpace(string(b)))
}

// runPlan draws one fault per step from a seeded RNG and sends it to a
// random target, healing one-step delays on the following step. All
// injected faults are healed before returning.
func runPlan(send func(ids.ReplicaID, string), targets []ids.ReplicaID,
	seed uint64, duration, step time.Duration, pSever, pDelay float64, delayBy time.Duration) {
	rng := ids.NewRNG(seed)
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	stopAt := time.Now().Add(duration)
	var delayed []ids.ReplicaID
	steps, faults := 0, 0
	for time.Now().Before(stopAt) {
		<-ticker.C
		steps++
		for _, id := range delayed {
			send(id, "chaos delay 0s")
		}
		delayed = delayed[:0]
		victim := targets[rng.Intn(len(targets))]
		switch {
		case rng.Bool(pSever):
			send(victim, "chaos sever")
			faults++
		case rng.Bool(pDelay):
			send(victim, fmt.Sprintf("chaos delay %s", delayBy))
			delayed = append(delayed, victim)
			faults++
		}
	}
	for _, id := range targets {
		send(id, "chaos heal")
	}
	log.Printf("detmt-chaos: plan done: %d steps, %d faults injected", steps, faults)
}

// resolveSequencer polls every listed server's status and returns the
// sequencer of the highest view any of them reports. Unreachable servers
// are skipped (the sequencer may be the replica someone just killed);
// at least one must answer.
func resolveSequencer(tr *wire.TCP, serverMap map[ids.ReplicaID]string, timeout time.Duration) (ids.ReplicaID, error) {
	var (
		best     ids.ReplicaID
		bestView uint64
		answered bool
	)
	for id := range serverMap {
		b, err := tr.Control(id, []byte("status"), timeout)
		if err != nil {
			continue
		}
		var st struct {
			View      uint64        `json:"view"`
			Sequencer ids.ReplicaID `json:"sequencer"`
		}
		if json.Unmarshal(b, &st) != nil || st.Sequencer <= 0 {
			continue
		}
		if !answered || st.View > bestView {
			best, bestView, answered = st.Sequencer, st.View, true
		}
	}
	if !answered {
		return 0, fmt.Errorf("no server reported a sequencer")
	}
	if _, ok := serverMap[best]; !ok {
		return 0, fmt.Errorf("reported sequencer %v is not in -servers", best)
	}
	return best, nil
}
