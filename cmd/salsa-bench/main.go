// Command salsa-bench regenerates the figures of the SALSA paper's
// evaluation (§1.6) and prints them as tables, one row per x-value and one
// column per algorithm/configuration — the same series the paper plots.
//
// Usage:
//
//	salsa-bench [flags] <figure>...
//
// where <figure> is one or more of: fig1.4a fig1.4b fig1.5a fig1.5b fig1.6
// fig1.7 fig1.8 batch all
//
// Flags:
//
//	-duration d       measurement window per data point (default 250ms;
//	                  the paper used 20s per point)
//	-batch n          tasks per API call for the non-batch figures
//	                  (default 1 = single-task API; the `batch` figure
//	                  sweeps sizes itself and ignores this)
//	-threads n        sweep ceiling in total threads (default 16; paper: 32)
//	-quick            coarser sweeps, for smoke runs
//	-csv dir          also write each figure as CSV into dir
//	-latency          sample Put/Get latency; fills the CSV percentile
//	                  columns (perturbs absolute throughput)
//	-metrics-addr a   serve /metrics (Prometheus) and /metrics.json on a,
//	                  tracking whichever pool is currently measured
//	-trace-log f      append JSONL telemetry events to file f
//	-snapshot-every d print telemetry deltas to stderr every d
//
// Absolute numbers depend on the host (the paper ran on a 32-core 8-socket
// NUMA machine); the shapes — who wins, by what factor, where curves
// flatten — are the reproduction targets. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/telemetry"
	"salsa/internal/workload"
)

// livePool is a telemetry.SnapshotSource that follows whichever pool the
// sweep is currently measuring (figure sweeps build a fresh pool per data
// point).
type livePool struct {
	p atomic.Pointer[salsa.Pool[workload.Task]]
}

func (l *livePool) TelemetrySnapshot() telemetry.Snapshot {
	if p := l.p.Load(); p != nil {
		return p.TelemetrySnapshot()
	}
	return telemetry.Snapshot{Algorithm: "idle"}
}

func main() {
	var (
		duration    = flag.Duration("duration", 250*time.Millisecond, "measurement window per data point")
		threads     = flag.Int("threads", 16, "sweep ceiling in total threads")
		quick       = flag.Bool("quick", false, "coarser sweeps")
		batch       = flag.Int("batch", 1, "tasks per API call for non-batch figures (1 = single-task API)")
		csvDir      = flag.String("csv", "", "directory to write per-figure CSV files")
		latency     = flag.Bool("latency", false, "sample Put/Get latency into the CSV percentile columns")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address during the run")
		traceLog    = flag.String("trace-log", "", "append JSONL telemetry events to this file")
		snapEvery   = flag.Duration("snapshot-every", 0, "print telemetry deltas to stderr at this interval")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: salsa-bench [flags] <fig1.4a|fig1.4b|fig1.5a|fig1.5b|fig1.6|fig1.7|fig1.8|batch|all>...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	opts := workload.FigureOptions{
		Duration:   *duration,
		MaxThreads: *threads,
		Quick:      *quick,
		Batch:      *batch,
	}

	live := &livePool{}
	if *metricsAddr != "" || *snapEvery > 0 || *latency {
		opts.Metrics = true
		opts.Observe = func(pool *salsa.Pool[workload.Task]) { live.p.Store(pool) }
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, telemetry.Handler(live, telemetry.HandlerOptions{PProf: true}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "salsa-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics on http://%s/metrics\n", srv.Addr())
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "salsa-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Tracer = telemetry.NewLogTracer(f)
	}
	if *snapEvery > 0 {
		stop := telemetry.StartDeltaLoop(os.Stderr, live, *snapEvery)
		defer stop()
	}

	fmt.Printf("# salsa-bench: GOMAXPROCS=%d NumCPU=%d window=%v threads<=%d\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *duration, *threads)

	figures, err := collect(flag.Args(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "salsa-bench: %v\n", err)
		os.Exit(1)
	}
	for _, fig := range figures {
		if err := workload.RenderTable(os.Stdout, fig); err != nil {
			fmt.Fprintf(os.Stderr, "salsa-bench: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSVFile(*csvDir, fig); err != nil {
				fmt.Fprintf(os.Stderr, "salsa-bench: csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func collect(names []string, opts workload.FigureOptions) ([]workload.Figure, error) {
	var out []workload.Figure
	seen := map[string]bool{}
	add := func(f workload.Figure, err error) error {
		if err != nil {
			return err
		}
		if !seen[f.ID] {
			seen[f.ID] = true
			out = append(out, f)
		}
		return nil
	}
	for _, name := range names {
		switch strings.ToLower(name) {
		case "all":
			figs, err := workload.AllFigures(opts)
			if err != nil {
				return nil, err
			}
			for _, f := range figs {
				if !seen[f.ID] {
					seen[f.ID] = true
					out = append(out, f)
				}
			}
		case "fig1.4a":
			if err := add(workload.Fig14a(opts)); err != nil {
				return nil, err
			}
		case "fig1.4b":
			if err := add(workload.Fig14b(opts)); err != nil {
				return nil, err
			}
		case "fig1.5a", "fig1.5b":
			a, b, err := workload.Fig15(opts)
			if err != nil {
				return nil, err
			}
			if err := add(a, nil); err != nil {
				return nil, err
			}
			if err := add(b, nil); err != nil {
				return nil, err
			}
		case "fig1.6":
			if err := add(workload.Fig16(opts)); err != nil {
				return nil, err
			}
		case "fig1.7":
			if err := add(workload.Fig17(opts)); err != nil {
				return nil, err
			}
		case "fig1.8":
			if err := add(workload.Fig18(opts)); err != nil {
				return nil, err
			}
		case "batch":
			if err := add(workload.FigBatch(opts)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown figure %q", name)
		}
	}
	return out, nil
}

func writeCSVFile(dir string, fig workload.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return workload.WriteCSV(f, fig)
}
