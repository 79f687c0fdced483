// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in-process against the exp, analytic, store and serve
// entry points, checks the outputs, and prints one JSON line of metrics:
//
//	perfbench -workload sweep_exact -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// records spans around the calls it makes, times each layer's public
// functions on the workload's inputs, and prints the per-layer metrics.
// README.md describes the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"
)

// setupReps is how many times a run builds the workload's state; setup_s
// is the median. Every set-up but the last is torn down again.
const setupReps = 3

// options is what every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workers bounds replay workers and HTTP clients: one per CPU.
	workers int
	// tmp is the scratch directory for stores; the caller removes it.
	tmp string
}

// roundStats is what one whole round of a workload's operations did.
type roundStats struct {
	// ops and failed count operations attempted and failed.
	ops, failed int
	// wall is the wall time the round's operations took, checks left
	// out; opMS holds the latencies op_p50_ms is the median of.
	wall time.Duration
	opMS []float64
	// same is the time tracing_overhead compares between traced and
	// untraced rounds: the time of the operations that are the same in
	// every round. Zero means wall.
	same time.Duration
}

// errInputsExhausted reports a workload that has no fresh inputs left for
// another round; the measured phase then ends with the rounds it has.
var errInputsExhausted = errors.New("workload inputs exhausted")

// layers is a traced run's per-layer result, keyed by per-layer metric name.
type layers map[string]float64

// bench is one benchmark workload.
type bench interface {
	// setUp builds the state the measured rounds need, ending with a
	// warm-up round so that lazy set-up is paid here.
	setUp(o options) error
	// tearDown releases what setUp built.
	tearDown()
	// round runs one whole round of operations. A non-nil tracer records
	// a span around every call the round makes into the program.
	round(tr *tracer) (roundStats, error)
	// check verifies the outputs of every round run so far.
	check() error
	// ladder times each layer's public functions on the workload's
	// inputs; traced holds the spans of the traced rounds.
	ladder(traced []span) (layers, error)
}

var workloads = map[string]func() bench{
	"sweep_exact":  func() bench { return &sweep{} },
	"cold_profile": func() bench { return &cold{} },
	"serve_mix":    func() bench { return &mix{} },
}

// endToEnd and perLayer list every metric a run prints, with its unit:
// the end-to-end metrics, then the per-layer ones.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"goodput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"workload.gen_refs_per_s", "1/s"},
	{"core.prefix_refs_per_s", "1/s"},
	{"reuse.sketch_refs_per_s", "1/s"},
	{"reuse.sketch_share", "ratio"},
	{"trace.packed_bytes_per_ref", "B"},
	{"trace.decode_refs_per_s", "1/s"},
	{"exp.replay_refs_per_s", "1/s"},
	{"exp.points_per_decode", "count"},
	{"design.build_us", "us"},
	{"exp.reference_replay_ms", "ms"},
	{"analytic.predict_us", "us"},
	{"analytic.max_amat_err", "ratio"},
	{"store.put_stream_ms", "ms"},
	{"store.restore_ms", "ms"},
	{"store.put_doc_ms", "ms"},
	{"store.get_doc_us", "us"},
	{"serve.normalize_us", "us"},
	{"serve.key_us", "us"},
	{"unattributed_share", "ratio"},
	{"tracing_overhead", "ratio"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep_exact, cold_profile or serve_mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	tmp := flag.String("tmp", "", "scratch directory (default: the system's)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload sweep_exact|cold_profile|serve_mix, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*tmp, "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU(), tmp: dir}
	out, err := run(mk(), o)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupReps times, measures whole rounds for
// o.seconds, checks the outputs and assembles the result. In a traced run
// untraced and traced rounds alternate, so the tracing overhead compares
// rounds of one process.
func run(w bench, o options) (*output, error) {
	var setups, heaps []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.tearDown()
		}
		start := time.Now()
		if err := w.setUp(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		// The second collection empties the sync.Pool victim caches,
		// whose size follows scheduling rather than live state.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/(1<<20))
	}
	defer w.tearDown()

	var plain, traced []roundStats
	var spans []span
	out := &output{Correct: true, Metrics: map[string]metric{}}
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start).Seconds() >= o.seconds && len(plain) > 0 && (!o.trace || len(traced) > 0) {
			break
		}
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = &tracer{}
		}
		st, err := w.round(tr)
		if errors.Is(err, errInputsExhausted) && len(plain) > 0 && (!o.trace || len(traced) > 0) {
			fmt.Fprintf(os.Stderr, "perfbench: inputs exhausted after %.1f s; the measured phase ends early\n", time.Since(start).Seconds())
			break
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		out.Attempted += st.ops
		out.Failed += st.failed
		if tr != nil {
			traced = append(traced, st)
			spans = append(spans, tr.spans...)
		} else {
			plain = append(plain, st)
		}
	}
	if err := w.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		out.Correct = false
	}

	var goodput, opMS []float64
	for _, st := range plain {
		goodput = append(goodput, float64(st.ops-st.failed)/st.wall.Seconds())
		opMS = append(opMS, st.opMS...)
	}
	values := map[string]float64{
		"setup_s":       median(setups),
		"live_heap_mb":  median(heaps),
		"goodput_per_s": median(goodput),
		"op_p50_ms":     median(opMS),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d untraced and %d traced rounds, %d operations, %d failed; per-round goodput quartiles %.4g\n",
		len(plain), len(traced), out.Attempted, out.Failed, quartiles(goodput))
	defs := endToEnd
	if o.trace {
		l, err := w.ladder(spans)
		if err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		l["tracing_overhead"] = medianSame(traced)/medianSame(plain) - 1
		for k, v := range l {
			values[k] = v
		}
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, d := range append(endToEnd, perLayer...) {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	return out, nil
}

func medianSame(rs []roundStats) float64 {
	var xs []float64
	for _, r := range rs {
		d := r.same
		if d == 0 {
			d = r.wall
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs)
}

// quartiles returns the first, second and third quartiles of xs.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		return s[int(q*float64(len(s)-1)+0.5)]
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed call into the program, recorded by a traced round.
type span struct {
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps a traced round's spans in memory. A nil tracer records
// nothing, so untraced rounds run the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// time calls fn and records a span named name around it.
func (t *tracer) time(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{name: name, start: time.Now()}
	err := fn()
	s.end = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

// errList collects check failures; its error joins at most a few of them.
type errList struct {
	errs []error
	n    int
}

func (l *errList) add(format string, args ...any) {
	l.n++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Errorf(format, args...))
	}
}

func (l *errList) err() error {
	if l.n == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures: %w", l.n, errors.Join(l.errs...))
}
