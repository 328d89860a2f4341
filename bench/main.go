// Command bench is the repository's benchmark: four replay-driven workloads
// that measure sample in → command out end to end and attribute it per layer.
// It touches nothing outside this directory — every number is taken from
// outside the program, by timing calls into public functions and by wrapping
// the two interfaces the hub already accepts (serve.Source, models.Classifier).
//
//	go run ./bench                        every workload, untraced then traced, one table
//	go run ./bench -workload W -trace 0   one untraced run: the end-to-end metrics
//	go run ./bench -workload W -trace 1   one traced run: the per-layer metrics
//	go run ./bench -agree                 the untraced suite twice; fails if the two disagree
//	go run ./bench -validate-only         parse BENCHMARK.json, build fleets, run the checks
//
// A single-workload run ends with one JSON line: correct, attempted, failed,
// metrics. A failed output check prints no metrics and exits non-zero. See
// README.md for why each workload exists and how to read the numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const (
	fleetSessions = 100
	// setupRepeats is how many times an untraced run sets up; setup_s is the
	// median, which is what keeps it steady enough to gate on.
	setupRepeats = 3
	// tmpDir holds WAL, checkpoint and probe files while a run lasts. It is
	// inside the checkout: the benchmark writes nowhere else.
	tmpDir = ".bench_tmp"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: the whole suite, one child process each)")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same traces")
		seconds      = flag.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write every span to this JSON file")
		out          = flag.String("out", "bench-result.json", "suite mode: where the result document goes")
		agree        = flag.Bool("agree", false, "run the untraced suite twice and compare against the bounds")
		validateOnly = flag.Bool("validate-only", false, "parse BENCHMARK.json, build every fleet, run every check, report no timing")
	)
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *trace, *traceOut, *out, *agree, *validateOnly); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func realMain(workloadName string, seed uint64, seconds float64, trace int, traceOut, out string, agree, validateOnly bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1")
	}
	if workloadName != "" && !validateOnly && !agree {
		if seconds <= 0 {
			spec, err := loadSpec(specFile)
			if err != nil {
				return fmt.Errorf("bench: -seconds not given and %w", err)
			}
			seconds = float64(spec.RunSeconds)
		}
		return runOne(params{workload: workloadName, seed: seed, seconds: seconds, traced: trace == 1, traceOut: traceOut})
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if workloadName == "" || workloadName == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("bench: unknown workload %q", workloadName)
	}
	switch {
	case validateOnly:
		return validate(names, seed)
	case agree:
		return runAgree(spec, names, seed, seconds)
	default:
		return runSuite(spec, names, seed, seconds, out)
	}
}

// withTmp completes p with the fleet size and a scratch directory, and
// returns the function that removes the directory again.
func withTmp(p params) (params, func(), error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return p, nil, err
	}
	p.tmp, p.sessions = tmpDir, fleetSessions
	if p.traced {
		p.setups, p.restores = 1, 3
	} else {
		p.setups, p.restores = setupRepeats, 15
	}
	return p, func() { os.Remove(tmpDir) }, nil // Remove, not RemoveAll: a concurrent run may be using it
}

// runOne is a single-workload run in this process: the driver's entry point.
func runOne(p params) error {
	p, cleanup, err := withTmp(p)
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := run(p)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: a metric is not a number: %w", err)
	}
	traceFlag := 0
	if p.traced {
		traceFlag = 1
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  GOMAXPROCS %d\n",
		p.workload, p.seed, p.seconds, traceFlag, runtime.GOMAXPROCS(0))
	printMetrics(res, p.traced)
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	fmt.Printf("%s\n", line)
	return nil
}

// printMetrics prints every metric of the run by name, with its unit and the
// sample count behind it, in the declared order.
func printMetrics(res *result, traced bool) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, name := range names {
		m := res.Metrics[name[0]]
		fmt.Printf("  %-36s %14.4f %-6s (n=%d)\n", name[0], m.Value, m.Unit, m.n)
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
}

// validate builds each workload's fleet at full size and runs it just long
// enough for every output check to execute: the reference comparison, the
// continuation of a restored fleet, sample conservation.
func validate(names []string, seed uint64) error {
	for _, name := range names {
		p, cleanup, err := withTmp(params{workload: name, seed: seed, seconds: 0.2})
		if err != nil {
			return err
		}
		p.setups, p.restores = 1, 1
		_, err = run(p)
		cleanup()
		if err != nil {
			return err
		}
		fmt.Printf("%-14s checks passed\n", name)
	}
	fmt.Printf("%s valid: %d workloads, %d end-to-end and %d per-layer metrics\n",
		specFile, len(workloads), len(endToEnd), len(perLayer))
	return nil
}

// child runs one workload in a fresh process, so setup_s and peak_rss_mb are
// that workload's alone, echoes what it printed and returns its result line.
func child(name string, seed uint64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: %s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("bench: %s (trace %d): result line: %w", name, trace, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("bench: %s (trace %d) reported incorrect output", name, trace)
	}
	return &res, nil
}

// suiteDoc is the result document suite mode writes.
type suiteDoc struct {
	Seed       uint64                `json:"seed"`
	Seconds    float64               `json:"seconds"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	GoVersion  string                `json:"go_version"`
	Workloads  map[string]*suiteRows `json:"workloads"`
}

type suiteRows struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runSuite runs every named workload untraced and traced and writes one
// result document.
func runSuite(spec *benchSpec, names []string, seed uint64, seconds float64, out string) error {
	doc := suiteDoc{Seed: seed, Seconds: seconds, GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workloads: map[string]*suiteRows{}}
	for _, name := range names {
		rows := &suiteRows{}
		var err error
		if rows.EndToEnd, err = child(name, seed, seconds, 0); err != nil {
			return err
		}
		if rows.PerLayer, err = child(name, seed, seconds, 1); err != nil {
			return err
		}
		doc.Workloads[name] = rows
	}
	fmt.Printf("\n%-28s", "end to end")
	for _, name := range names {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, m := range spec.EndToEnd {
		fmt.Printf("%-20s %-7s", m.Name, m.Unit)
		for _, name := range names {
			fmt.Printf(" %14.4f", doc.Workloads[name].EndToEnd.Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-28s", "ops_failed / ops_attempted")
	for _, name := range names {
		e := doc.Workloads[name].EndToEnd
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", e.Failed, e.Attempted))
	}
	fmt.Println()
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runAgree runs the untraced suite twice and holds the pair to the
// benchmark's own bounds: a second set worse than the first by more than a
// metric's bound, on any workload, means the benchmark cannot resolve a
// regression of that size and is not fit to gate on.
func runAgree(spec *benchSpec, names []string, seed uint64, seconds float64) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, name := range names {
			res, err := child(name, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[i][name] = res
		}
	}
	var bad []string
	fmt.Printf("\n%-14s %-28s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][name].Metrics[m.Name].Value, sets[1][name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if diff > *m.Bound {
				verdict = "  DISAGREE"
				bad = append(bad, name+"/"+m.Name)
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", name, m.Name, a, b, 100*diff, 100**m.Bound, verdict)
		}
		for i, set := range sets {
			if f := set[name].Failed; f != 0 {
				bad = append(bad, fmt.Sprintf("%s: run %d had %d failed operations", name, i+1, f))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: the two sets disagree: %s", strings.Join(bad, ", "))
	}
	fmt.Println("the two sets agree within every bound, with no failed operation")
	return nil
}
