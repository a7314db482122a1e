// Command benchdiff compares two tacobench reports (BENCH_meet.json) and
// fails when the meet path regressed beyond a threshold — in throughput,
// in tail latency, or in allocations. CI runs it with the committed
// baseline on the left and the freshly measured report on the right:
//
//	go run ./scripts/benchdiff.go [-threshold 0.15] [-p99-threshold 0.25] \
//	    [-allocs-threshold 0.20] [-ungated durable,replicated] \
//	    BENCH_meet.json /tmp/BENCH_new.json
//
// Exit status 0 when every baseline benchmark is present in the new report,
// none lost more than threshold×100 % ops/sec, none grew its p99 latency by
// more than p99-threshold×100 %, and none grew allocs/op by more than
// allocs-threshold×100 %; 1 otherwise. The p99 gate catches regressions
// throughput hides: a lock that serializes one percent of operations barely
// moves ops/sec but multiplies the tail. The allocs gate defends the alloc
// wins the hot-path PRs bought: an accidental per-op allocation barely
// shows in a 2-second throughput sample but costs GC time at scale.
// Benchmarks only present in the new report are listed but never fail the
// run, so new workloads can land together with their first measurements.
// Alloc deltas on baselines below minGatedAllocs allocs/op are ignored —
// at that level a ±1 alloc jitter would trip any percentage gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// result and report mirror the cmd/tacobench JSON schema; only the fields
// benchdiff judges are declared.
type result struct {
	Name        string  `json:"name"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type report struct {
	Schema     string   `json:"schema"`
	Benchmarks []result `json:"benchmarks"`
}

const wantSchema = "tacoma-bench/v1"

// addFailure accumulates one gate's verdict text and marks the run failed.
func addFailure(verdict *string, failed *bool, msg string) {
	if *verdict == "ok" {
		*verdict = msg
	} else {
		*verdict += "; " + msg
	}
	*failed = true
}

// minGatedAllocs: below this many allocs/op in the baseline, the allocation
// gate is skipped — a single-alloc jitter on a 2-alloc lane is 50%.
const minGatedAllocs = 8

// minGatedP99Ns: below this baseline p99, the tail gate is skipped — on a
// sub-5µs lane one GC pause or scheduler hiccup in the p99 sample is a
// ±50% swing, and a real regression there moves ops/sec anyway.
const minGatedP99Ns = 5000

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != wantSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, wantSchema)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &r, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated fractional ops/sec regression")
	p99Threshold := flag.Float64("p99-threshold", 0.25, "maximum tolerated fractional p99 latency regression")
	allocsThreshold := flag.Float64("allocs-threshold", 0.20, "maximum tolerated fractional allocs/op regression")
	ungated := flag.String("ungated", "", "comma-separated benchmark names that are compared and printed but never fail the run (disk-latency-bound lanes whose ops/sec tracks the runner's fdatasync cost, not the code); a lane missing entirely still fails")
	allocsCap := flag.String("allocs-cap", "", "comma-separated name=limit absolute allocs/op ceilings (e.g. script=50): the new report's lane fails when it reaches the limit, independent of the baseline — this is how a hard-won alloc budget stays won")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.15] [-p99-threshold 0.25] [-allocs-threshold 0.20] [-ungated lane1,lane2] baseline.json new.json")
		os.Exit(2)
	}
	ungatedSet := make(map[string]bool)
	for _, name := range strings.Split(*ungated, ",") {
		if name = strings.TrimSpace(name); name != "" {
			ungatedSet[name] = true
		}
	}
	caps := make(map[string]float64)
	if *allocsCap != "" {
		for _, pair := range strings.Split(*allocsCap, ",") {
			name, limit, ok := strings.Cut(strings.TrimSpace(pair), "=")
			var v float64
			if ok {
				_, err := fmt.Sscanf(limit, "%g", &v)
				ok = err == nil && v > 0
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "benchdiff: bad -allocs-cap entry %q (want name=limit)\n", pair)
				os.Exit(2)
			}
			caps[name] = v
		}
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	curByName := make(map[string]result, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}

	failed := false
	fmt.Printf("%-10s %14s %14s %8s %12s %12s %8s %7s %7s %8s  %s\n",
		"benchmark", "base ops/sec", "new ops/sec", "delta", "base p99", "new p99", "delta",
		"allocs", "allocs", "delta", "verdict")
	for _, b := range base.Benchmarks {
		n, ok := curByName[b.Name]
		if !ok {
			fmt.Printf("%-10s %14.0f %14s %8s %12s %12s %8s %7s %7s %8s  MISSING\n",
				b.Name, b.OpsPerSec, "-", "-", "-", "-", "-", "-", "-", "-")
			failed = true
			continue
		}
		delete(curByName, b.Name)
		delta := (n.OpsPerSec - b.OpsPerSec) / b.OpsPerSec
		// gated is hoisted so a future gate cannot forget the exemption
		// and silently re-gate the disk-latency-bound lanes.
		gated := !ungatedSet[b.Name]
		verdict := "ok"
		if !gated {
			verdict = "ungated"
		}
		if gated && delta < -*threshold {
			addFailure(&verdict, &failed, fmt.Sprintf("REGRESSION (>%.0f%% ops/sec loss)", *threshold*100))
		}
		p99Delta := 0.0
		if b.P99Ns >= minGatedP99Ns {
			p99Delta = float64(n.P99Ns-b.P99Ns) / float64(b.P99Ns)
			if gated && p99Delta > *p99Threshold {
				addFailure(&verdict, &failed, fmt.Sprintf("P99 REGRESSION (>%.0f%% slower tail)", *p99Threshold*100))
			}
		}
		allocsDelta := 0.0
		if b.AllocsPerOp >= minGatedAllocs {
			allocsDelta = (n.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			if gated && allocsDelta > *allocsThreshold {
				addFailure(&verdict, &failed, fmt.Sprintf("ALLOCS REGRESSION (>%.0f%% more allocs/op)", *allocsThreshold*100))
			}
		}
		// The absolute cap is an explicit opt-in per lane, so it applies
		// even to ungated lanes.
		if limit, capped := caps[b.Name]; capped && n.AllocsPerOp >= limit {
			addFailure(&verdict, &failed, fmt.Sprintf("ALLOCS CAP (%.1f allocs/op >= %.0f)", n.AllocsPerOp, limit))
		}
		fmt.Printf("%-10s %14.0f %14.0f %+7.1f%% %11dns %11dns %+7.1f%% %7.1f %7.1f %+7.1f%%  %s\n",
			b.Name, b.OpsPerSec, n.OpsPerSec, delta*100, b.P99Ns, n.P99Ns, p99Delta*100,
			b.AllocsPerOp, n.AllocsPerOp, allocsDelta*100, verdict)
	}
	for name, n := range curByName {
		verdict := "new benchmark"
		if limit, capped := caps[name]; capped && n.AllocsPerOp >= limit {
			addFailure(&verdict, &failed, fmt.Sprintf("ALLOCS CAP (%.1f allocs/op >= %.0f)", n.AllocsPerOp, limit))
		}
		fmt.Printf("%-10s %14s %14.0f %8s %12s %11dns %8s %7s %7.1f %8s  %s\n",
			name, "-", n.OpsPerSec, "-", "-", n.P99Ns, "-", "-", n.AllocsPerOp, "-", verdict)
	}
	if failed {
		fmt.Println("benchdiff: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}
