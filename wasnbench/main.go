// Command wasnbench is the repository benchmark. It drives the public
// routing API (wasn.Deploy/NewSim, Router.RouteInto, wasn.Service and
// its HTTP handler) through one of three workloads, checks every
// output, and prints the metrics as one JSON object on the last line
// of standard output:
//
//	wasnbench --workload churn-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics plus the
// tracing overhead. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// config is what a workload run is given.
type config struct {
	seed    uint64
	seconds int
}

// workloads maps each workload name to the function that runs it,
// which gets a nil tracer on untraced runs.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"paper-sweep": runPaper,
	"churn-zipf":  runChurn,
	"http-route":  runHTTP,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run's counts, check failures and metrics.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	samples   map[string]int64   // sample count behind each percentile
	notes     map[string]float64 // context printed with the stamp
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int64{}, notes: map[string]float64{}}
}

// fail counts one failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload: paper-sweep, churn-zipf or http-route")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "nominal length of the timed phase; the work done is a fixed function of it")
		traced   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		traceDir = flag.String("trace-dir", "", "directory a traced run writes its spans to (none when empty)")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "wasnbench: need --workload paper-sweep, churn-zipf or http-route, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds}

	var (
		o   *outcome
		err error
	)
	if *traced == 0 {
		o, err = drive(cfg, nil)
	} else {
		o, err = runTraced(drive, cfg, *name, *traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wasnbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "wasnbench: check failed: %s\n", p)
	}
	report(*name, cfg, *traced == 1, o)
	if o.failed > 0 {
		return 1
	}
	return 0
}

// runTraced runs the workload untraced, then traced on a fresh set-up,
// and reports the per-layer metrics with the tracing overhead: traced
// over untraced routes_per_s, with both bases.
func runTraced(drive func(config, *tracer) (*outcome, error), cfg config, name, dir string) (*outcome, error) {
	base, err := drive(cfg, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o, err := drive(cfg, tr)
	if err != nil {
		return nil, err
	}
	o.attempted += base.attempted
	o.failed += base.failed
	o.problems = append(base.problems, o.problems...)
	plain, traced := base.metrics["routes_per_s"].Value, o.metrics["routes_per_s"].Value
	o.metrics = layerMetrics(tr)
	o.set("trace.routes_per_s_untraced", "1/s", plain)
	o.set("trace.routes_per_s_traced", "1/s", traced)
	o.set("trace.overhead_ratio", "ratio", ratio(traced, plain))
	if dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
		if err := tr.write(path, name, cfg.seed); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return o, nil
}

// layerMetrics turns a traced run's spans into the per-layer metrics.
// A layer the workload does not exercise reads 0.
func layerMetrics(tr *tracer) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// Builds total one set-up's networks; repairs are per churn op.
	set("topo.deploy_ms", "ms", sum(tr.durations("topo.deploy")))
	for _, layer := range []string{"safety", "bound", "planar"} {
		set(layer+".build_ms", "ms", sum(tr.durations(layer+".build")))
		set(layer+".repair_ms", "ms", quantileOf(tr.durations(layer+".repair"), 0.5))
	}
	for _, alg := range algorithms {
		set("core.route_us."+alg, "us", tr.foldQuantile("core.route."+alg, 0.5))
		set("core.delivered."+alg, "ratio", lastValue(tr, "core.delivered."+alg))
		set("core.stretch."+alg, "ratio", lastValue(tr, "core.stretch."+alg))
	}
	set("serve.route_hit_us", "us", tr.foldQuantile("serve.route.hit", 0.5))
	set("serve.route_miss_us", "us", tr.foldQuantile("serve.route.miss", 0.5))
	set("serve.cache_hit_ratio", "ratio", lastValue(tr, "serve.cache_hit_ratio"))
	set("serve.cache_purged_per_op", "count", lastValue(tr, "serve.cache_purged_per_op"))
	set("serve.apply_self_ms", "ms", quantileOf(tr.values["serve.apply_self_ms"], 0.5))
	set("http.handler_us", "us", tr.foldQuantile("http.handler", 0.5))
	set("http.client_codec_us", "us", tr.foldQuantile("http.client_codec", 0.5))
	set("http.roundtrip_us", "us", tr.foldQuantile("http.roundtrip", 0.5))
	set("runtime.allocs_per_op", "count", lastValue(tr, "runtime.allocs_per_op"))
	set("runtime.alloc_bytes_per_op", "B", lastValue(tr, "runtime.alloc_bytes_per_op"))
	set("runtime.gc_pause_ms", "ms", lastValue(tr, "runtime.gc_pause_ms"))
	return m
}

func lastValue(tr *tracer, name string) float64 {
	if v := tr.values[name]; len(v) > 0 {
		return v[len(v)-1]
	}
	return 0
}

// report prints the environment stamp with the sample counts, a
// readable metric table on standard error, and the result object as the
// last line of standard output.
func report(name string, cfg config, traced bool, o *outcome) {
	stamp := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"samples":    o.samples,
		"notes":      o.notes,
	}
	line, _ := json.Marshal(map[string]any{"env": stamp})
	fmt.Println(string(line))

	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}

	res, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	})
	fmt.Println(string(res))
}

// commit is the source revision the go tool stamped into the binary,
// with "-dirty" for uncommitted changes; "unknown" when it was built
// outside a git checkout.
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
