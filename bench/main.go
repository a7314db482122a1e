// Command bench is the repository's benchmark: six named workloads driven
// through the public functions of repro/internal/*, five end-to-end metrics
// per workload, and a traced pass that attributes an op's time to layers.
// README.md in this directory says what each workload and metric is for.
//
// Usage (through run.sh, which builds inside the checkout):
//
//	run.sh                                  every workload, both passes
//	run.sh -out results.json                ... and append the run to a file
//	run.sh -workload W -seed N -seconds S -trace 0|1
//	                                        one pass over one workload; the
//	                                        last line of output is its result
//	run.sh -compare a.json b.json           compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeed is the seed of a run that names none. BASELINE.json was
// measured from it.
const defaultSeed = 1995

// tracedSeconds is the length of the traced pass when both passes run.
const tracedSeconds = 3

func run() error {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line (default: run them all)")
		seed         = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds      = flag.Float64("seconds", 15, "length of the measured run, per workload")
		trace        = flag.Int("trace", -1, "0: untraced pass only; 1: traced pass only, for all of -seconds; default: both, the traced one for 3 s")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans and counter deltas to this file")
		out          = flag.String("out", "", "append this run's results to a JSON file, for -compare")
		compare      = flag.Bool("compare", false, "compare two result files against the bounds in BENCHMARK.json: -compare a.json b.json")
		workdir      = flag.String("workdir", ".bench_build/run", "directory for the logs the workloads write; created if missing")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles("", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	// Sites size their scheduler pools from GOMAXPROCS when they are made,
	// so this comes first.
	runtime.GOMAXPROCS(clientCount)
	e := env{seed: *seed, clients: clientCount, workdir: *workdir}

	names := workloadNames
	if *workloadName != "" {
		if _, err := newWorkload(*workloadName); err != nil {
			return err
		}
		names = []string{*workloadName}
	}
	var results []result
	var traces []traceFile
	ok := true
	for _, name := range names {
		if *trace != 1 {
			res, err := measure(name, e, standardPlan(*seconds))
			if err != nil {
				return err
			}
			printResult(res, endToEndDefs)
			results = append(results, res)
			ok = ok && res.Correct
		}
		if *trace != 0 {
			length := *seconds
			if *trace < 0 {
				length = tracedSeconds
			}
			res, err := traced(name, e, standardPlan(length))
			if err != nil {
				return err
			}
			printResult(res, perLayerDefs)
			traces = append(traces, traceFile{name, e.seed, res.perOp, res.spans})
			results = append(results, res)
			ok = ok && res.Correct
		}
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, traces); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := appendRun(*out, results); err != nil {
			return err
		}
	}
	if *workloadName != "" && *trace >= 0 {
		// The driver's contract: one JSON object as the last line.
		res := results[0]
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("a workload's answers were wrong or none completed; see the notes above")
	}
	return nil
}

// printResult prints one pass: the counts, then every metric by name and
// unit, in the order BENCHMARK.json lists them.
func printResult(res result, defs []metricDef) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %.0f s): ops_attempted=%d ops_failed=%d samples=%d correct=%v\n",
		res.Workload, pass, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Samples, res.Correct)
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	if len(res.WindowRates) > 0 {
		fmt.Printf("  %-28s %v\n", "window_ops_per_s", res.WindowRates)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// resultFile is what -out writes and -compare reads: the runs made so far,
// each a list of passes.
type resultFile struct {
	Schema     string     `json:"schema"`
	Go         string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Clients    int        `json:"clients"`
	Runs       [][]result `json:"runs"`
}

const resultSchema = "meetbench/v1"

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema is %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

// appendRun adds one run to the result file at path, creating it if needed,
// so that repeated runs of one commit collect in one file.
func appendRun(path string, run []result) error {
	rf, err := readResults(path)
	if os.IsNotExist(err) {
		rf = resultFile{Schema: resultSchema}
	} else if err != nil {
		return err
	}
	rf.Go, rf.GOMAXPROCS, rf.Clients = runtime.Version(), runtime.GOMAXPROCS(0), clientCount
	rf.Runs = append(rf.Runs, run)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, p := range paths {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return spec, fmt.Errorf("reading the bounds: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// quartiles returns the first quartile, the median and the third quartile
// of v as Python's statistics.quantiles(v, n=4) gives them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// series collects the values of one metric of one workload over the
// untraced passes of every run in a file.
func (rf resultFile) series(workload, metric string) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		for _, res := range run {
			if v, ok := res.Metrics[metric]; ok && res.Workload == workload && !res.Traced {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the change from a to b, the bound, each side's spread (the
// distance between its quartiles as a share of its median, given two runs
// or more), and a verdict. b is worse when its median is worse than a's by
// more than the bound; otherwise, when a spread is wider than the bound,
// the pair is unresolved, and setup_s aside it is not called unchanged.
func compareFiles(specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a = %s (%d runs), b = %s (%d runs)\n", pathA, len(a.Runs), pathB, len(b.Runs))
	fmt.Printf("%-10s %-14s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "change", "bound", "a spread", "b spread", "verdict")
	worse := 0
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := a.series(name, m.Name), b.series(name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			regress := change
			if m.Better == "higher" {
				regress = -change
			}
			spread := func(v []float64) (float64, string) {
				if len(v) < 2 {
					return 0, "-"
				}
				q1, q2, q3 := quartiles(v)
				return (q3 - q1) / q2, fmt.Sprintf("%.1f%%", 100*(q3-q1)/q2)
			}
			sa, ta := spread(va)
			sb, tb := spread(vb)
			verdict := "ok"
			switch {
			case regress > m.Bound:
				verdict = "worse"
				worse++
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-10s %-14s %14.4f %14.4f %+7.1f%% %5.0f%% %8s %8s  %s\n",
				name, m.Name, ma, mb, 100*change, 100*m.Bound, ta, tb, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse in %s by more than their bound", worse, strings.TrimSpace(pathB))
	}
	return nil
}
