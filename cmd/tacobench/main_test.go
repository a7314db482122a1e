package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Every workload must run and produce a sane measurement; this is what keeps
// the CI bench job from discovering a broken generator only on main.
func TestWorkloadsSmoke(t *testing.T) {
	for _, mode := range []string{"local", "cabinet", "remote", "guarded", "script", "hop", "durable", "mixed", "parked", "fleet", "fleet-lookup"} {
		t.Run(mode, func(t *testing.T) {
			res, err := runMode(mode, benchOpts{
				concurrency: 2, duration: 30 * time.Millisecond, payload: 16,
				fleetSites: 4, fleetAgents: 100, parkedPop: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != mode {
				t.Errorf("name = %q, want %q", res.Name, mode)
			}
			if res.Ops <= 0 || res.OpsPerSec <= 0 {
				t.Errorf("no throughput recorded: %+v", res)
			}
			if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
				t.Errorf("implausible percentiles: p50=%d p99=%d", res.P50Ns, res.P99Ns)
			}
		})
	}
}

// The committed heavy fixture must keep running through -script-src: it is
// the proc-and-cabinet-heavy alternative workload for the script lane.
func TestScriptSrcFixture(t *testing.T) {
	src, err := os.ReadFile("testdata/heavy.tacl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMode("script", benchOpts{
		concurrency: 2, duration: 30 * time.Millisecond, payload: 16,
		scriptSrc: string(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 {
		t.Errorf("no throughput recorded: %+v", res)
	}
}

// fleet-converge bypasses measure() — samples are simulated durations, not
// op latencies — so it gets its own smoke: a short run must still complete
// its minimum trials and report sane simulated percentiles.
func TestFleetConvergeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/rejoin trials in -short")
	}
	res, err := runMode("fleet-converge", benchOpts{fleetSites: 4, duration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 3 {
		t.Errorf("only %d trials, want >= 3", res.Ops)
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Errorf("implausible percentiles: p50=%d p99=%d", res.P50Ns, res.P99Ns)
	}
}

func TestUnknownModeRefused(t *testing.T) {
	if _, err := runMode("warp-drive", benchOpts{concurrency: 1, duration: 10 * time.Millisecond, payload: 16}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestReportRoundTrips(t *testing.T) {
	res, err := runMode("local", benchOpts{concurrency: 1, duration: 20 * time.Millisecond, payload: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report{Schema: ReportSchema, Go: "go-test", GOMAXPROCS: 1, Benchmarks: []Result{res}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || len(back.Benchmarks) != 1 || back.Benchmarks[0].Name != "local" {
		t.Fatalf("round trip mangled report: %+v", back)
	}
}
