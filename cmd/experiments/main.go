// Command experiments regenerates the paper's evaluation tables and figures
// (see DESIGN.md §2 for the experiment index).
//
// Usage:
//
//	experiments -run all                       # every experiment, paper order
//	experiments -run fig9 -rounds 300          # one experiment, paper-scale search
//	experiments -run table5 -csv out/          # also emit CSV files
//	experiments -bench-json BENCH_search.json  # search-speedup benchmark only
//	experiments -bench mvm -bench-json BENCH_mvm.json  # packed-MVM benchmark
//	experiments -bench fleet -bench-json BENCH_fleet.json  # DES fleet benchmark
//	experiments -run fig9 -cpuprofile cpu.out  # profile with go tool pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"autohet/internal/experiments"
	"autohet/internal/obs"
	"autohet/internal/report"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, ext, or one of "+
		strings.Join(experiments.Names, ", ")+" / "+strings.Join(experiments.Extensions, ", "))
	rounds := flag.Int("rounds", 300, "RL search rounds per search (paper: 300)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	csvDir := flag.String("csv", "", "directory to also write per-table CSV files into")
	benchJSON := flag.String("bench-json", "", "run a benchmark instead of experiments and write its JSON document to this path")
	bench := flag.String("bench", "search", "which benchmark -bench-json runs: search (cached-vs-uncached search), mvm (packed-vs-scalar MVM engine), or fleet (DES cluster-scale fleet)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsJSON := flag.String("metrics-json", "", "write an obs-registry JSON snapshot (search/sim counters, stage timings) to this file on exit")
	flag.Parse()

	if *metricsJSON != "" {
		defer func() {
			if err := writeMetricsJSON(*metricsJSON); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: metrics-json: %v\n", err)
				return
			}
			fmt.Printf("metrics snapshot written to %s\n", *metricsJSON)
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	if *benchJSON != "" {
		switch *bench {
		case "search":
			b, err := experiments.BenchSearch(*rounds, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			if err := b.WriteJSON(*benchJSON); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("search bench (%s, %d rounds, %d workers): uncached %.2fs, cached %.2fs (%.1fx, hit rate %.1f%%) -> %s\n",
				b.Model, b.Rounds, b.Workers, b.Uncached.WallSeconds, b.Cached.WallSeconds,
				b.Speedup, 100*b.Cached.HitRate, *benchJSON)
		case "mvm":
			b, err := experiments.BenchMVM(*seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			if err := b.WriteJSON(*benchJSON); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("mvm bench (%d workers): kernel %.0fns packed vs %.0fns scalar (%.0fx); %s end-to-end %.3fs/inf (%.1f inf/s, %.2f allocs/patch, est. %.0fx over scalar) -> %s\n",
				b.Workers, b.Kernel.PackedNsPerMVM, b.Kernel.ScalarNsPerMVM, b.Kernel.Speedup,
				b.EndToEnd.Model, b.EndToEnd.WallSecondsPerInf, b.EndToEnd.InferencesPerSec,
				b.EndToEnd.AllocsPerPatch, b.EndToEnd.EstimatedSpeedup, *benchJSON)
			fmt.Printf("  kernel batch sweep (Fig. 5 layer):\n")
			fmt.Printf("    %6s  %12s  %12s  %8s\n", "batch", "ns/MVM", "MVMs/s", "vs B=1")
			for _, kl := range b.KernelBatch {
				fmt.Printf("    %6d  %12.0f  %12.0f  %7.2fx\n", kl.Batch, kl.NsPerMVM, kl.MVMsPerSec, kl.SpeedupVsB1)
			}
			fmt.Printf("  %s serving sweep (fast kernels; bit-exact pipeline %.2f inf/s):\n",
				b.EndToEnd.Model, b.EndToEnd.BitExactInfPerSec)
			fmt.Printf("    %6s  %12s  %12s  %10s  %12s\n", "batch", "s/inf", "inf/s", "IQR/med", "bytes/inf")
			for _, sl := range b.EndToEnd.ServeBatch {
				fmt.Printf("    %6d  %12.4f  %12.2f  %9.1f%%  %12.0f\n", sl.Batch, sl.WallSecondsPerInf, sl.InferencesPerSec, 100*sl.IQRRel, sl.AllocBytesPerInf)
			}
		case "fleet":
			b, err := experiments.BenchFleet(*seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			if err := b.WriteJSON(*benchJSON); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			for _, l := range b.Legs {
				fmt.Printf("fleet bench: %d replicas / %d requests: %.2fs wall, %.1fM ev/s, %.0fx virtual/wall, %.0f req/s simulated\n",
					l.Replicas, l.Requests, l.WallSeconds, l.EventsPerSec/1e6, l.SpeedupVsWall, l.RequestsPerSec)
			}
			fmt.Printf("fleet bench -> %s\n", *benchJSON)
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown benchmark %q (want search, mvm, or fleet)\n", *bench)
			os.Exit(1)
		}
		return
	}

	suite := experiments.NewSuite(*rounds, *seed)
	var names []string
	switch *run {
	case "all":
		names = experiments.Names
	case "ext":
		names = experiments.Extensions
	default:
		names = strings.Split(*run, ",")
	}
	isExtension := func(name string) bool {
		for _, e := range experiments.Extensions {
			if e == name {
				return true
			}
		}
		return false
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		var tables []*report.Table
		var err error
		if isExtension(name) {
			tables, err = suite.RunExtension(name)
		} else {
			tables, err = suite.Run(name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		for i, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: render %s: %v\n", name, err)
				os.Exit(1)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fmt.Sprintf("%s_%d.csv", name, i), t); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: csv %s: %v\n", name, err)
					os.Exit(1)
				}
			}
		}
	}
}

// writeMetricsJSON dumps the process-wide obs registry — search stage
// timings, per-searcher eval counts, sim cache hit/miss counters — as an
// indented JSON snapshot.
func writeMetricsJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(dir, name string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}
