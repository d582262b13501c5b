// Command benchmark is this repository's one benchmark: four workloads over
// the serving daemon and the cluster simulator, nine end-to-end metrics, and
// a traced run that splits each workload's time by layer. README.md in this
// directory says what each workload isolates and which layer metric should
// move which end-to-end metric; BENCHMARK.json at the repository root is
// the contract the numbers are judged by.
//
//	go run ./benchmark -workload all -seed 1           # every end-to-end metric
//	go run ./benchmark -workload all -seed 1 -trace 1  # plus the per-layer run
//	go run ./benchmark -workload serve_strict -seed 7  # one workload
//	go run ./benchmark -repeat 5                       # spread table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const wlCluster = "cluster_contended"

// workloads in the order they run and print.
var workloads = []string{wlStrict, wlBatched, wlPaced, wlCluster}

// config is everything a run's size depends on. The defaults are the
// benchmark; the smoke test shrinks them.
type config struct {
	seed int64

	tenants          int // serve fixture: tenants x decided intervals
	fixtureIntervals int
	coldStarts       int // set-ups timed per run, first discarded
	batch            int // snapshots per POST on serve_batched
	clients          int // closed-loop client connections
	probeSyncs       int

	warmup, window           time.Duration
	traceWarmup, traceWindow time.Duration
	slice                    time.Duration

	clusterTenants, clusterServers, clusterIntervals int

	trace      bool
	outDir     string // benchmark/out: ledgers while running, span dumps after
	fixtureDir string // a fixture the parent process already built
}

func defaultConfig() *config {
	return &config{
		seed:             1,
		tenants:          1000,
		fixtureIntervals: 300,
		coldStarts:       5,
		batch:            500,
		clients:          min(2, runtime.NumCPU()),
		probeSyncs:       500,
		warmup:           2 * time.Second,
		window:           16 * time.Second,
		traceWarmup:      time.Second,
		traceWindow:      8 * time.Second,
		slice:            time.Second,
		clusterTenants:   400,
		clusterServers:   200,
		clusterIntervals: 12,
		outDir:           "benchmark/out",
	}
}

// metric is one named number. Timing metrics carry the range and the median
// of the slices (or set-ups) they were reduced from.
type metric struct {
	name, unit string
	stat       sliceStat
}

func single(v float64) sliceStat { return sliceStat{val: v, min: v, max: v, median: v} }

// setupStat is the set-up estimator: the first set-up of a run is discarded
// (it also pays for whatever the process had not yet touched), the rest are
// reduced to their median.
func setupStat(secs []float64) sliceStat {
	if len(secs) > 1 {
		secs = secs[1:]
	}
	st := reduceSlices(secs, false)
	st.val = st.median
	return st
}

// result is one workload's outcome.
type result struct {
	workload  string
	env       environment
	attempted int64
	failed    int64
	endToEnd  []metric
	perLayer  []metric
	notes     []string // facts that are not numbers, e.g. sim.result_sha256
	failures  []string // failed output checks
}

func newResult(cfg *config, workload string) *result {
	return &result{workload: workload, env: newEnvironment(cfg)}
}

func (r *result) add(m metric) { r.endToEnd = append(r.endToEnd, m) }
func (r *result) layer(name, unit string, v float64) {
	r.perLayer = append(r.perLayer, metric{name: name, unit: unit, stat: single(v)})
}
func (r *result) fail(format string, a ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}
func (r *result) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "== %s\nenv %s\n", r.workload, env)
	for _, m := range r.endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %-5s", m.name, m.stat.val, m.unit)
		if m.stat.min != m.stat.max {
			fmt.Fprintf(w, "  (min %.4f, max %.4f, median %.4f)", m.stat.min, m.stat.max, m.stat.median)
		}
		fmt.Fprintln(w)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6f ratio  (%d of %d)\n", "failed_share", share, r.failed, r.attempted)
	for _, m := range r.perLayer {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", m.name, m.stat.val, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	all, _ := json.Marshal(r.line(nil))
	fmt.Fprintf(w, "%s%s\n", allPrefix, all)
}

// line is a run's outcome in machine-readable form. The last line of a
// single-workload run is one: the end-to-end metrics BENCHMARK.json lists
// or, with -trace 1, the per-layer ones. The report carries another, with
// every metric the run has, after allPrefix.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]lineItem `json:"metrics"`
}

type lineItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const allPrefix = "all "

// line reports the metrics want names, or with a nil want every metric the
// run has. The contract's line carries the same names on every workload, so
// a metric of a layer this workload never enters reads 0 there — which is
// "no serve, ledger or fsio span appears on cluster_contended" as a number.
func (r *result) line(want []contractMetric) line {
	l := line{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]lineItem{}}
	have := map[string]lineItem{}
	for _, m := range append(append([]metric(nil), r.endToEnd...), r.perLayer...) {
		have[m.name] = lineItem{Value: m.stat.val, Unit: m.unit}
	}
	if want == nil {
		l.Metrics = have
		return l
	}
	for _, m := range want {
		item, ok := have[m.Name]
		if !ok {
			item = lineItem{Unit: m.Unit}
		}
		l.Metrics[m.Name] = item
	}
	return l
}

// runWorkload dispatches one workload in this process.
func runWorkload(cfg *config, name string) (*result, error) {
	var res *result
	var err error
	switch name {
	case wlStrict, wlBatched, wlPaced:
		res, err = runServe(cfg, name)
	case wlCluster:
		res, err = runCluster(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range append(append([]metric(nil), res.endToEnd...), res.perLayer...) {
		if math.IsNaN(m.stat.val) || math.IsInf(m.stat.val, 0) {
			res.fail("%s is %v", m.name, m.stat.val)
		}
	}
	return res, nil
}

// child re-executes this binary for one workload, so every workload starts
// from a fresh heap and scheduler. It passes the child's report on and
// returns the line of the report that carries every metric.
func child(cfg *config, name string, stdout io.Writer) (line, error) {
	exe, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.window.Seconds()),
		"-trace", fmt.Sprint(btoi(cfg.trace)),
		"-fixture", cfg.fixtureDir,
	)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// The report, passed on; its last line, the one a driver reads, is not.
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var l line
	found := false
	for _, ln := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, ln)
		if rest, ok := strings.CutPrefix(ln, allPrefix); ok {
			found = json.Unmarshal([]byte(rest), &l) == nil
		}
	}
	if !found {
		return line{}, fmt.Errorf("%s: no result in the child's report (%v)", name, runErr)
	}
	return l, runErr
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// suite runs every workload once, each in its own process, over one
// fixture, and returns each workload's line of every metric.
func suite(cfg *config, stdout io.Writer) (map[string]line, error) {
	gen, err := newGenerator(cfg.seed, cfg.tenants)
	if err != nil {
		return nil, err
	}
	fixture, err := os.MkdirTemp(cfg.outDir, "fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fixture)
	if err := buildFixture(fixture, gen, cfg.fixtureIntervals, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	if err := syncTree(fixture); err != nil {
		return nil, err
	}
	sub := *cfg
	sub.fixtureDir = fixture
	lines := map[string]line{}
	var first error
	for _, name := range workloads {
		l, err := child(&sub, name, stdout)
		if err != nil && first == nil {
			first = err
		}
		lines[name] = l
	}
	return lines, first
}

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", cfg.window.Seconds(), "length of the measured window")
	trace := flag.Int("trace", 0, "0 or 1; 1 adds the traced run: per-layer metrics and benchmark/out/trace-<workload>.jsonl")
	repeat := flag.Int("repeat", 0, "run the whole suite N times and print each metric's spread against its bound")
	flag.StringVar(&cfg.fixtureDir, "fixture", "", "ledger fixture built by the parent process (internal)")
	flag.Parse()
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.traceWindow = min(cfg.traceWindow, cfg.window)
	cfg.trace = *trace != 0

	c, err := loadContract(contractPath)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *repeat > 0:
		if err := repeatSuite(cfg, c, *repeat, os.Stdout); err != nil {
			fatal(err)
		}
	case *workload == "all":
		lines, err := suite(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		for _, name := range workloads {
			if !lines[name].Correct {
				fatal(fmt.Errorf("%s: output checks failed", name))
			}
		}
	default:
		res, err := runWorkload(cfg, *workload)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		want := c.EndToEnd
		if cfg.trace {
			want = c.PerLayer
		}
		last, _ := json.Marshal(res.line(want))
		fmt.Printf("%s\n", last)
		if !res.correct() {
			os.Exit(1)
		}
	}
}

// phase reports on standard error how long a step of a run took, so a run
// that overruns its time budget shows where.
func phase(name string, start time.Time) {
	fmt.Fprintf(os.Stderr, "benchmark: %-28s %6.2fs\n", name, time.Since(start).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
