// Command perfbench is the repository benchmark. It drives the three
// user-facing paths from outside, through their public functions: the
// AutoHet search (search.AutoHet), functional inference
// (sim.Engine.RunBatch) and cluster-scale fleet simulation
// (des.Fleet.RunTrace).
//
//	perfbench --workload <search|infer|fleet|fleet-flat|all> --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is one JSON object holding every
// end-to-end metric; with --trace 1 it holds every per-layer metric. Both
// runs write an artifact (machine, metrics, simulated model statistics and,
// when traced, the spans) to .bench_out/ under the working directory.
// --workload all runs every workload in its own process, traced and
// untraced, and prints one table with the tracing overhead. NOTES.md lists
// the metrics and why each workload exists.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the path it measures.
var workloads = map[string]func(b *bench){
	"search":     runSearch,
	"infer":      runInfer,
	"fleet":      func(b *bench) { runFleet(b, fleetRecipe) },
	"fleet-flat": func(b *bench) { runFleet(b, flatRecipe) },
}

// outDir holds the per-run artifacts, under the working directory.
const outDir = ".bench_out"

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"search", "infer", "fleet", "fleet-flat"}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last stdout line: the run's outcome and its metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload: its inputs, its clock and what it has
// measured so far.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool // smoke size: fixed tiny inputs, --seconds ignored

	spans *spanRecorder // nil unless traced

	attempted, failed int
	failures          []string
	e2e, layers       map[string]metric
	// model holds the simulated statistics, exact per seed: two commits
	// diff them for identity.
	model map[string]float64
	// samples keeps every timing behind a reported median or percentile.
	samples map[string][]float64
}

func newBench(workload string, seed int64, seconds float64, traced, tiny bool) *bench {
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, traced: traced, tiny: tiny,
		e2e: map[string]metric{}, layers: map[string]metric{}, model: map[string]float64{},
		samples: map[string][]float64{},
	}
	if traced {
		b.spans = newSpanRecorder()
	}
	return b
}

// op counts one attempted operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted++
	b.check(err)
}

// check records a failed output check (or error) against the current
// operation without counting a new attempt.
func (b *bench) check(err error) {
	if err != nil {
		b.failed++
		b.failures = append(b.failures, err.Error())
	}
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layers[name] = metric{v, unit} }

// deadline returns the end of a timed phase that gets share of --seconds.
func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.seconds * float64(time.Second)))
}

// maxRSSMB is the process's peak resident memory so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machine describes the host every number was measured on.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func describeMachine(commit string, seed int64) machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// artifact is the results file one run leaves in .bench_out/.
type artifact struct {
	Machine  machine              `json:"machine"`
	Workload string               `json:"workload"`
	Seconds  float64              `json:"seconds"`
	Traced   bool                 `json:"traced"`
	Report   report               `json:"report"`
	Model    map[string]float64   `json:"model"`
	Failures []string             `json:"failures,omitempty"`
	Samples  map[string][]float64 `json:"samples"`
	Spans    []span               `json:"spans,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "search, infer, fleet, fleet-flat, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := flag.String("commit", "unknown", "source commit, recorded in the artifact")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *commit))
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n",
			*workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	b := newBench(*workload, *seed, *seconds, *traceFlag == 1, false)
	mach := describeMachine(*commit, *seed)
	rep := b.execute(run)

	art := artifact{Machine: mach, Workload: b.workload, Seconds: b.seconds, Traced: b.traced,
		Report: rep, Model: b.model, Failures: b.failures, Samples: b.samples, Spans: b.spans.list()}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, *traceFlag))
	if err := writeJSON(path, art); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	m, _ := json.Marshal(mach)
	fmt.Printf("machine %s\n", m)
	m, _ = json.Marshal(b.model)
	fmt.Printf("model %s\n", m)
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// execute runs the workload and assembles its report: end-to-end
// metrics untraced, per-layer metrics traced.
func (b *bench) execute(run func(*bench)) report {
	run(b)
	if b.traced {
		// Every traced run reports every per-layer metric: the layers of a
		// path this workload does not drive come from a tiny instance of
		// that path, recorded under the same names.
		for _, name := range []string{"search", "infer", "fleet"} {
			if name == pathOf(b.workload) {
				continue
			}
			side := newBench(name, b.seed, b.seconds, true, true)
			workloads[name](side)
			for k, v := range side.layers {
				if _, ok := b.layers[k]; !ok {
					b.layers[k] = v
				}
			}
			b.attempted += side.attempted
			b.failed += side.failed
			b.failures = append(b.failures, side.failures...)
		}
	} else {
		b.setE2E("max_rss_mb", "MB", maxRSSMB())
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if b.traced {
		rep.Metrics = b.layers
	}
	return rep
}

// pathOf names the program path a workload drives.
func pathOf(workload string) string {
	if strings.HasPrefix(workload, "fleet") {
		return "fleet"
	}
	return workload
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload untraced and traced, each in its own process
// so no workload's memory carries into another's, and prints every metric
// by name with its unit. It returns the exit code: non-zero when any run
// failed or any output check did.
func runAll(seed int64, seconds float64, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		var reps [2]report
		for tr := 0; tr < 2; tr++ {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(tr),
				"--commit", commit)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &reps[tr]); jerr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%d produced no report: %v %v\n", w, tr, err, jerr)
				code = 1
				continue
			}
			if err != nil || !reps[tr].Correct {
				code = 1
			}
		}
		fmt.Printf("== %s: attempted %d, failed %d (traced run: attempted %d, failed %d)\n",
			w, reps[0].Attempted, reps[0].Failed, reps[1].Attempted, reps[1].Failed)
		printMetrics(reps[0].Metrics)
		fmt.Println("  -- per layer (traced run)")
		printMetrics(reps[1].Metrics)
		if u, t := reps[0].Metrics["throughput_per_s"].Value, reps[1].Metrics["traced.throughput_per_s"].Value; u > 0 && t > 0 {
			fmt.Printf("  tracing overhead: %.2f%% of throughput_per_s\n", 100*(u/t-1))
		}
	}
	return code
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
