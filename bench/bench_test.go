package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/folder"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(clientCount)
	os.Exit(m.Run())
}

// testPlan is a pass short enough for tier-1.
func testPlan() plan {
	return plan{seconds: 0.2, warmup: 50 * time.Millisecond, setupRounds: 1, primingOps: 32}
}

// spec is BENCHMARK.json as the driver reads it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecNames: the names and units the benchmark emits are the ones
// BENCHMARK.json declares, in the same order, and all are well-formed.
func TestSpecNames(t *testing.T) {
	s := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, defs []metricDef, name func(i int) (string, string), n int) {
		if n != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark emits %d", n, kind, len(defs))
		}
		for i, d := range defs {
			gotName, gotUnit := name(i)
			if gotName != d.name || gotUnit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the benchmark", kind, i, gotName, gotUnit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q [%s] is not well-formed", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEndDefs, func(i int) (string, string) { return s.EndToEnd[i].Name, s.EndToEnd[i].Unit }, len(s.EndToEnd))
	check("per_layer", perLayerDefs, func(i int) (string, string) { return s.PerLayer[i].Name, s.PerLayer[i].Unit }, len(s.PerLayer))
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s.RunSeconds < 10 || s.RunSeconds > 60 {
		t.Errorf("run_seconds is %d", s.RunSeconds)
	}
}

// TestWorkloads runs both passes over every workload with verification on,
// and checks what the passes emit: every declared metric, no failed op, a
// well-formed trace, each workload stressing the layer it was chosen for,
// and nothing left running or on disk afterwards.
func TestWorkloads(t *testing.T) {
	workdir := t.TempDir()
	e := env{seed: defaultSeed, clients: clientCount, workdir: workdir}
	goroutines := runtime.NumGoroutine()

	layers := make(map[string]map[string]float64)
	for _, name := range workloadNames {
		res, err := measure(name, e, testPlan())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, d := range endToEndDefs {
			if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
				t.Errorf("%s: %s is %+v (present %v)", name, d.name, v, ok)
			}
		}

		res, err = traced(name, e, testPlan())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%v", name, res.Correct, res.Failed, res.Notes)
		}
		layers[name] = make(map[string]float64)
		for _, d := range perLayerDefs {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: %s is %+v (present %v)", name, d.name, v, ok)
			}
			layers[name][d.name] = v.Value
		}
		var spans []span
		for _, s := range res.spans {
			spans = append(spans, s...)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: trace: %v", name, err)
		}
		roots := 0
		for _, s := range spans {
			if s.Parent == 0 {
				roots++
			}
		}
		if want := int(res.Attempted); roots < want || roots > want+clientCount {
			t.Errorf("%s: %d root spans for %d ops (each client may have one more, cut off by the end)", name, roots, want)
		}
	}

	if m := layers["script"]; m[spanEval+"_us"] < 0.85*m[mOpMean] {
		t.Errorf("script: tacl.eval_us is %.1f of an op of %.1f µs, want at least 85%%", m[spanEval+"_us"], m[mOpMean])
	}
	for _, idle := range []string{spanCall + "_us", spanCodec + "_us", spanCommit + "_us", mSyncsPerOp, mWireBytes} {
		if v := layers["script"][idle]; v != 0 {
			t.Errorf("script: %s is %v, want 0", idle, v)
		}
	}
	if v := layers["courier"][mRefRatio]; v >= 0.1 {
		t.Errorf("courier: %s is %.3f, want below 0.1", mRefRatio, v)
	}
	if v := layers["itinerary"][mRefRatio]; v <= 0.8 {
		t.Errorf("itinerary: %s is %.3f, want above 0.8", mRefRatio, v)
	}
	if v := layers["durable"][mSyncsPerOp]; v <= 0 || v > 1 {
		t.Errorf("durable: %s is %.3f, want in (0, 1]", mSyncsPerOp, v)
	}
	if v := layers["resident"][spanWake+"_us"]; v <= 0 {
		t.Errorf("resident: %s is %v, want above 0", spanWake+"_us", v)
	}

	// Scheduler workers retire after a quarter of a second without work.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines are running after teardown, %d before the first setup:\n%s",
			n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	left, err := os.ReadDir(workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("%s is left in the work directory after teardown", f.Name())
	}
}

// TestGeneratorDeterminism: one seed gives byte-identical inputs, another
// seed gives other inputs.
func TestGeneratorDeterminism(t *testing.T) {
	it := &itinerary{}
	if err := it.setup(env{seed: 7, clients: clientCount}); err != nil {
		t.Fatal(err)
	}
	defer it.teardown()
	builders := map[string]func(seed int64, c int, i int64) *folder.Briefcase{
		"itinerary": func(seed int64, c int, i int64) *folder.Briefcase {
			it.e.seed = seed
			bc, _, err := it.agent(c, i, itineraryHops)
			if err != nil {
				t.Fatal(err)
			}
			return bc
		},
		"courier": func(seed int64, c int, i int64) *folder.Briefcase {
			bc, _ := (&courier{e: env{seed: seed}}).parcel(c, i)
			return bc
		},
		"script": func(seed int64, c int, i int64) *folder.Briefcase {
			bc, _ := (&script{e: env{seed: seed}}).agent(c, i)
			return bc
		},
		"durable": func(seed int64, c int, i int64) *folder.Briefcase {
			bc, _ := (&durable{e: env{seed: seed}}).delivery(c, i)
			return bc
		},
		"resident": func(seed int64, c int, i int64) *folder.Briefcase {
			w := &resident{e: env{seed: seed, clients: clientCount}, hot: make([]string, residentHotSet)}
			bc, _ := w.work(c, i)
			return bc
		},
	}
	for name, build := range builders {
		a := folder.EncodeBriefcase(build(7, 1, 42))
		b := folder.EncodeBriefcase(build(7, 1, 42))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed, client and op gave different inputs", name)
		}
		for what, other := range map[string][]byte{
			"seed":   folder.EncodeBriefcase(build(8, 1, 42)),
			"client": folder.EncodeBriefcase(build(7, 0, 42)),
			"op":     folder.EncodeBriefcase(build(7, 1, 43)),
		} {
			if bytes.Equal(a, other) {
				t.Errorf("%s: another %s gave the same inputs", name, what)
			}
		}
	}
	// The two choices that are not briefcase bytes: which resident an op is
	// for, and which timestep a forecast is for.
	pick := func(seed int64) (picks [64]int) {
		for i := range picks {
			s := opStream(seed, tagStormcast, 0, int64(i))
			picks[i] = s.intn(stormSteps)
		}
		return picks
	}
	if pick(7) != pick(7) || pick(7) == pick(8) {
		t.Error("stormcast: the order of timesteps does not follow the seed")
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles are %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles are %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestCompare: a median worse by more than its bound fails the comparison;
// one within it does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates ...float64) string {
		path := filepath.Join(dir, name)
		for _, r := range rates {
			run := []result{{Workload: "script", Correct: true, Metrics: map[string]value{mOpsPerS: {r, "1/s"}}}}
			if err := appendRun(path, run); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 1000, 1010, 990)
	if err := compareFiles(specPath, base, write("same.json", 995, 1005, 1000)); err != nil {
		t.Errorf("runs within the bound compare as worse: %v", err)
	}
	if err := compareFiles(specPath, base, write("slow.json", 700, 705, 695)); err == nil {
		t.Error("a run 30% slower compares as not worse")
	}
}
