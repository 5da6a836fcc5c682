// Command bench is the repository's benchmark: it builds a cluster of real
// nodes on loopback TCP in one process, drives it through the query
// service in a closed loop, checks every answer against an oracle, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory says what each is for.
//
//	go run ./cmd/bench                                   # all workloads
//	go run ./cmd/bench -workload search_hot -seed 7      # one
//	go run ./cmd/bench -workload publish -trace 1        # per-layer + spans
//	go run ./cmd/bench -check                            # run-to-run agreement
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/telemetry"
)

// sizes fixes the scale of a run. The op-list lengths are upper bounds: at
// the benchmark's run length a run ends on its clock with list to spare.
type sizes struct {
	nodes   int
	files   int            // distinct files in the corpus
	queries int            // trace queries generated; about 7 in 10 are distinct
	ops     map[string]int // measured op-list length per workload
	counted map[string]int // ops at the list's head whose traffic is counted; see runPhase
	setups  int            // set-ups timed per untraced run
	quick   bool           // the smoke test's: unit passes at a twentieth of their calls
}

// benchSizes is what BENCHMARK.json's numbers are measured at. At 48 nodes
// the far half of the ID space holds more nodes than a bucket's k=20, so
// tables are partial (43 contacts of 47) and two lookups in five take a
// second round; at 32 every node still knows every node.
var benchSizes = sizes{
	nodes:   48,
	files:   10000,
	queries: 90000,
	ops:     map[string]int{"search_cold": 48000, "search_hot": 400000, "publish": 12000, "mixed_rw": 120000},
	// About two fifths of what the 2-core box completes in the 12 s of
	// BENCHMARK.json, so a run half as fast still reaches them.
	counted: map[string]int{"search_cold": 3000, "search_hot": 24000, "publish": 800, "mixed_rw": 4000},
	setups:  3,
}

// dataset seeds the data set: node IDs, corpus and query pool. It is the
// benchmark's, as a TPC scale factor's rows are; -seed varies what is drawn
// from it. With one seed for both, metrics moved 16–37 % between seeds.
const dataset = 1

type options struct {
	workload string // "" = every workload
	seed     int64  // seed of the op lists drawn from the data set
	seconds  int
	trace    bool
	maxOps   int // the smoke test's cap on measured ops; 0 = the list's length
	json     bool
	check    bool
	spans    string // where a traced run writes its spans
	scratch  string // parent of the disk stores' directories
	sz       sizes
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, out io.Writer) int {
	opt := options{sz: benchSizes}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload to run (default: all)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the op lists: which queries and files, in which order, and the Zipf draws")
	fs.IntVar(&opt.seconds, "seconds", 12, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: registry attached, spans recorded, per-layer metrics reported")
	fs.BoolVar(&opt.json, "json", false, "print one JSON object per workload instead of text")
	fs.BoolVar(&opt.check, "check", false, "run every workload in two interleaved sets of runs and fail if an end-to-end metric differs between them by more than its bound")
	fs.StringVar(&opt.spans, "spans", "", "file a traced run writes its spans to (default <scratch>/spans-<workload>.json)")
	fs.StringVar(&opt.scratch, "scratch", ".bench_build", "directory for disk stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace != 0

	todo := workloads
	if opt.workload != "" {
		w, err := findWorkload(opt.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		todo = []workload{w}
	}
	if opt.check {
		return runCheck(ctx, opt, todo, out)
	}
	code := 0
	for _, w := range todo {
		run := runWorkload
		if len(todo) > 1 {
			run = runIsolated
		}
		res, err := run(ctx, w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(out, opt.json)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// header records what the numbers depend on.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    int64  `json:"dataset"`
	Seed       int64  `json:"seed"`
	Nodes      int    `json:"nodes"`
	Files      int    `json:"files"`
	Instances  int    `json:"instances"`
	Tuples     int    `json:"tuples"`
	Store      string `json:"store"`
	Seconds    int    `json:"seconds"`
	OpsListed  int    `json:"ops_listed"`
	OpsCounted int    `json:"ops_counted"`
	Warmup     int    `json:"warmup_ops"`
	Load       string `json:"load"`
	Network    string `json:"network"`
	Note       string `json:"note"`
}

// commit is the VCS revision the binary was built from, when the go tool
// stamped one: a checkout that is not a repository has none.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// metric is one reported number. N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload's outcome. Without the workload name and header
// it marshals to exactly the line the benchmark driver reads.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Header    *header           `json:"header,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// FirstFailure says what the first failed op was and why.
	FirstFailure string `json:"first_failure,omitempty"`
	// Stale counts answers that were right but missed a publish acked
	// before the query was sent; they are not failed ops.
	Stale int `json:"stale,omitempty"`
}

func (r *result) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// print writes the result: as text, the header, one line per metric and
// last the driver's JSON line; with asJSON, one object holding all of it.
func (r *result) print(out io.Writer, asJSON bool) {
	if asJSON {
		data, _ := json.Marshal(r)
		fmt.Fprintf(out, "%s\n", data)
		return
	}
	h := r.Header
	fmt.Fprintf(out, "# %s: %s; %s; %s\n", r.Workload, h.Load, h.Network, h.Note)
	fmt.Fprintf(out, "# commit=%s go=%s nproc=%d gomaxprocs=%d dataset=%d seed=%d nodes=%d files=%d instances=%d tuples=%d store=%s seconds=%d ops_listed=%d ops_counted=%d warmup_ops=%d\n",
		h.Commit, h.Go, h.NumCPU, h.GOMAXPROCS, h.Dataset, h.Seed, h.Nodes, h.Files, h.Instances, h.Tuples, h.Store, h.Seconds, h.OpsListed, h.OpsCounted, h.Warmup)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%s %s %v %s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(out, "# stale answers (right, but missing a publish acked before the query): %d of %d ops\n", r.Stale, r.Attempted)
	if r.FirstFailure != "" {
		fmt.Fprintf(out, "# first failed op: %s\n", r.FirstFailure)
	}
	line := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", data)
}

// inputs is everything a run derives from its seed before there is a
// system: generator work, done once and shared by the run's set-ups.
type inputs struct {
	seed           int64
	ids            []dht.ID
	corp           *corpus
	perNode        [][]placedValue
	warm, measured []op
	counted        int // ops at measured's head whose traffic is counted
}

func newInputs(w workload, opt options) (*inputs, error) {
	in := &inputs{seed: opt.seed, ids: nodeIDs(dataset, opt.sz.nodes), corp: newCorpus(dataset, opt.sz.files, opt.sz.queries)}
	n := opt.sz.ops[w.name]
	if opt.maxOps > 0 && opt.maxOps < n {
		n = opt.maxOps
	}
	in.counted = min(opt.sz.counted[w.name], n)
	in.warm, in.measured = w.ops(in.corp, rand.New(rand.NewSource(opt.seed)), n, in.counted)
	var err error
	in.perNode, err = placement(in.corp, in.ids)
	return in, err
}

// env is one set-up system under test.
type env struct {
	*inputs
	cl    *cluster
	setup time.Duration // cluster build + join + placement + warm-up
}

// setUp builds the cluster for w, places the corpus and runs the warm-up.
func setUp(ctx context.Context, w workload, opt options, in *inputs, reg *telemetry.Registry) (*env, error) {
	in.corp.reset()
	start := time.Now()
	cfg := clusterConfig{ids: in.ids, disk: w.disk, reg: reg}
	if w.disk {
		if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(opt.scratch, "stores-")
		if err != nil {
			return nil, err
		}
		cfg.dir = dir
	}
	cl, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	cl.place(in.perNode)
	p, err := runPhase(ctx, cl.svc.Addr(), in.corp, in.warm, 0, 0, nil)
	if err == nil && p.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d ops failed; first: %s", p.failed, p.attempted, p.firstFailure)
	}
	if err != nil {
		cl.close()
		return nil, err
	}
	return &env{inputs: in, cl: cl, setup: time.Since(start)}, nil
}

func (e *env) header(w workload, opt options) *header {
	store := "mem"
	if w.disk {
		store = "disk (Sync off)"
	}
	return &header{
		Commit: commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dataset: dataset, Seed: opt.seed, Nodes: opt.sz.nodes, Files: opt.sz.files, Instances: e.corp.placed, Tuples: e.corp.tuples,
		Store: store, Seconds: opt.seconds, OpsListed: len(e.measured), OpsCounted: e.counted, Warmup: len(e.warm),
		Load:    fmt.Sprintf("closed loop, %d clients", clients),
		Network: "loopback TCP, one process",
		Note:    "cpu_ms_per_op and allocs_per_op are the whole process's, generator included",
	}
}

// runWorkload runs w once: untraced for the end-to-end metrics, traced for
// the per-layer ones.
func runWorkload(ctx context.Context, w workload, opt options) (*result, error) {
	if opt.trace {
		return runTraced(ctx, w, opt)
	}
	in, err := newInputs(w, opt)
	if err != nil {
		return nil, err
	}
	e, err := setUp(ctx, w, opt, in, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Header: e.header(w, opt), Metrics: map[string]metric{}}
	p, err := runPhase(ctx, e.cl.svc.Addr(), e.corp, e.measured, time.Duration(opt.seconds)*time.Second, e.counted, nil)
	if err != nil {
		e.cl.close()
		return nil, err
	}
	// The high-water mark is read before the set-up repeats below, so it is
	// one cluster's, not three clusters' garbage.
	rss := peakRSSMiB()
	res.Attempted, res.Failed, res.FirstFailure, res.Stale = p.attempted, p.failed, p.firstFailure, p.stale
	crossedTTL(e.cl.tierTotals(), res)
	if w.name == "publish" {
		if err := readYourWrites(ctx, e, p.published, res); err != nil {
			e.cl.close()
			return nil, err
		}
	}
	e.cl.close()

	// Set-up is timed several times and its median reported: one set-up
	// is too few samples for a metric a later change may not worsen.
	setups := []float64{e.setup.Seconds()}
	for len(setups) < opt.sz.setups {
		again, err := setUp(ctx, w, opt, in, nil)
		if err != nil {
			return nil, err
		}
		again.cl.close()
		setups = append(setups, again.setup.Seconds())
	}
	sort.Float64s(setups)

	res.Correct = res.Failed == 0 && p.ops() > 0
	if p.ops() == 0 {
		return res, nil
	}
	ops := float64(p.ops())
	all := append(append([]float64(nil), p.queryMs...), p.publishMs...)
	sort.Float64s(all)
	// Time to first result is the queries'. A workload without queries must
	// report it all the same; there it is the publishes' latency, whose ack
	// is their first and only response.
	first := p.ttfrMs
	if len(first) == 0 {
		first = p.publishMs
	}
	res.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	res.set("ops_per_s", ops/p.elapsed.Seconds(), "ops/s", p.ops())
	res.set("op_p50_ms", quantile(all, 0.50), "ms", len(all))
	res.set("op_p95_ms", quantile(all, 0.95), "ms", len(all))
	res.set("ttfr_p50_ms", quantile(first, 0.50), "ms", len(first))
	res.set("cpu_ms_per_op", ms(p.cpu)/ops, "ms", p.ops())
	res.set("allocs_per_op", float64(p.mallocs)/ops, "count", p.ops())
	res.set("msgs_per_op", ratio(float64(p.msgs), float64(p.counted)), "count", p.counted)
	res.set("wire_kb_per_op", ratio(float64(p.bytes)/1024, float64(p.counted)), "KiB", p.counted)
	res.set("peak_rss_mb", rss, "MiB", 1)
	return res, nil
}

// runIsolated runs w in a process of its own, a child running this binary,
// as the benchmark driver runs every workload: a process that has run a
// workload already starts the next with a grown heap, and its VmHWM is the
// earlier workload's.
func runIsolated(ctx context.Context, w workload, opt options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-json", "-workload", w.name, "-trace", trace, "-spans", opt.spans,
		"-seed", strconv.FormatInt(opt.seed, 10), "-seconds", strconv.Itoa(opt.seconds), "-scratch", opt.scratch)
	cmd.Stderr = os.Stderr
	// A child that ran but saw failed ops exits 1 and still prints its
	// result; only a child with no result is an error.
	out, runErr := cmd.Output()
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		if runErr != nil {
			err = runErr
		}
		return nil, fmt.Errorf("child process: %w", err)
	}
	return &res, nil
}

// rywSample is how many published files the publish workload reads back.
const rywSample = 200

// readYourWrites searches a sample of the files the measured phase
// published by their full names, untimed: each must be found. The searches
// and the misses are added to res as attempted and failed ops.
func readYourWrites(ctx context.Context, e *env, published []*instance, res *result) error {
	if len(published) == 0 {
		return nil
	}
	step := len(published)/rywSample + 1
	var ops []op
	for i := 0; i < len(published); i += step {
		inst := published[i]
		ops = append(ops, op{query: queryText{text: inst.file.Name, tokens: inst.tokens}, strategy: strategyOf(len(ops))})
	}
	p, err := runPhase(ctx, e.cl.svc.Addr(), e.corp, ops, 0, 0, nil)
	if err != nil {
		return err
	}
	// Every file name here is new to the caches, so no answer may lag.
	missed := p.failed + p.stale
	res.Attempted += p.attempted
	res.Failed += missed
	if res.FirstFailure == "" && missed > 0 {
		res.FirstFailure = fmt.Sprintf("read-your-writes: %d of %d files not found; %s", missed, p.attempted, p.firstFailure)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -check and the smoke test
// read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// checkRuns is the number of runs in each of -check's two sets.
const checkRuns = 2

// runCheck runs each workload 2×checkRuns times on the same seeds, every
// run a process of its own, and fails if the mean of the odd runs and the
// mean of the even runs differ in any end-to-end metric by more than its
// bound in BENCHMARK.json. The sets interleave so that a box that slows
// down for a minute slows both. With the counts bounded tightly this is
// the guard against an unseeded node ID or a map-order leak.
func runCheck(ctx context.Context, opt options, todo []workload, out io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -check runs from the repository root:", err)
		return 2
	}
	code := 0
	for _, w := range todo {
		var sets [2]map[string]float64
		for i := 0; i < 2*checkRuns; i++ {
			res, err := runIsolated(ctx, w, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(out, "%s run %d: %d of %d ops failed: %s\n", w.name, i+1, res.Failed, res.Attempted, res.FirstFailure)
				code = 1
			}
			if sets[i%2] == nil {
				sets[i%2] = map[string]float64{}
			}
			for name, m := range res.Metrics {
				sets[i%2][name] += m.Value / checkRuns
			}
		}
		for _, spec := range bf.EndToEnd {
			a, b := sets[0][spec.Name], sets[1][spec.Name]
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if !(diff <= spec.Bound) {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(out, "%s %s %v %v %s diff=%.2f%% bound=%.0f%% %s\n", w.name, spec.Name, a, b, spec.Unit, 100*diff, 100*spec.Bound, verdict)
		}
	}
	return code
}
