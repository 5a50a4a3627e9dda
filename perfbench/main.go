// Command perfbench is pathhist's end-to-end benchmark. It generates a
// seeded full-scale dataset, starts the real ttserve binary on it, drives
// it over loopback from this one process, checks every answer against an
// in-process reference engine, and prints the metrics named in
// BENCHMARK.json. With -trace 1 it instead replays the workload in-process
// and times each layer through its public functions.
//
//	bash perfbench/run.sh --workload route-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result
// {"correct", "attempted", "failed", "metrics"}; everything else (sample
// counts, generator lag, hit ratios, the layer table) is diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose answers are pinned in pinnedDigests.
const defaultSeed = 1

// workloadSpec is one traffic mix. rate is the open-loop offered load in
// queries per second, at 25-40% of the capacity measured with two
// closed-loop connections on a 2-CPU host (PROVENANCE.md): nearer
// capacity, queueing turned every host hiccup into a swing of the
// open-loop latencies. open and closed are the shares of the measured
// seconds given to the open- and closed-loop query phases.
type workloadSpec struct {
	name         string
	sharded      bool // -shards 2 with live ingest during the open-loop phase
	rate         float64
	open, closed float64
}

var workloads = []workloadSpec{
	{name: "route-cold", rate: 650, open: 0.65, closed: 0.35},
	{name: "ingest-live", sharded: true, rate: 70, open: 0.65, closed: 0.35},
}

// options are the command-line settings of one run.
type options struct {
	wl       workloadSpec
	seed     int64
	seconds  float64
	ttserve  string // ttserve binary
	work     string // scratch directory for this run's files, removed at exit
	traceDir string // where the traced run writes its spans
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: route-cold or ingest-live")
		seed    = flag.Int64("seed", defaultSeed, "dataset and schedule seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
		bin     = flag.String("ttserve", "", "ttserve binary (built by run.sh)")
		work    = flag.String("work", ".bench_build", "directory for generated files")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, ttserve: *bin}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			o.wl, found = w, true
		}
	}
	if !found || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload route-cold|ingest-live -seed N -seconds S -trace 0|1 -ttserve BIN")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*work, fmt.Sprintf("run-%s-", o.wl.name))
	if err != nil {
		fatal(err)
	}
	o.work = dir
	o.traceDir = filepath.Join(*work, "traces")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %.0f s, trace %d; nproc %d, GOMAXPROCS %d, %s\n",
		o.wl.name, o.seed, o.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res *result
	if *trace == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runE2E(o)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
}

// phase returns the share of the run's measured seconds as a duration.
func (o options) phase(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

func (o options) path(name string) string { return filepath.Join(o.work, name) }
