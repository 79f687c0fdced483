package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
	"hybridmem/internal/model"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload/catalog"
)

// The make-up of one serve_mix round. It is synthetic: no recorded
// memsimd traffic exists to take it from, so each count is set by the
// mechanism its class exercises (README.md gives them). Every round sends
// exactly these requests, shuffled by the seed, so every round attempts
// the same operations and the deadline-bearing share is the same in every
// run.
const (
	mixCold     = 1  // reference design on a never-profiled (workload, scale, workload_scale, iters)
	mixExact    = 5  // a Table 2/3 design on a warm profile, never asked before
	mixAnalytic = 8  // custom single-cache designs of distinct geometry, analytic fidelity
	mixDeadline = 2  // as mixAnalytic, carrying X-Memsimd-Deadline-Ms
	mixHits     = 28 // every key computed in the previous two rounds
	mixStore    = 12 // keys computed long enough ago to have left the LRU
	// mixLRU is the result LRU's size (the CacheEntries deployment
	// setting). A round touches at most 56 keys, so a key computed in one
	// round is still cached two rounds later; a key is certainly evicted
	// once mixLRU newer keys have been computed after its last use.
	mixLRU = 192
	// mixDeadlineMS is far above an analytic answer's latency (2-5 ms,
	// most of it the store's write-through) and below the p90 of miss
	// latency, which the cold profiles (one miss in six, 100 ms and up)
	// set.
	mixDeadlineMS = 20
	// mixWarmRounds full rounds end set-up; they leave more than the 20
	// miss samples the server's deadline estimate waits for.
	mixWarmRounds = 4
)

// coldTuples lists the cold requests' profile tuples in a fixed order that
// does not depend on the seed, so every run profiles the same sequence.
// coldTable holds them per workload as iters/workload_scale/scale: the
// tuples whose profile took 100-350 ms on the 2-vCPU reference host, so
// that one round's cold request costs about what another's does. Every
// tuple changes the simulated stream: no iteration count is a workload's
// default, and Velvet, whose kernel ignores iters, is left out.
var coldTuples = func() []kernel {
	var out []kernel
	for _, name := range []string{"BT", "SP", "Graph500", "Hashing", "AMG2013", "CG"} {
		for _, f := range strings.Fields(coldTable[name]) {
			var k kernel
			if _, err := fmt.Sscanf(f, "%d/%d/%d", &k.iters, &k.wscale, &k.scale); err != nil {
				panic(err)
			}
			k.name = name
			out = append(out, k)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}()

var coldTable = map[string]string{
	"BT":       "2/4096/16 2/4096/32 2/4096/64 3/4096/4 3/4096/8 3/4096/16 3/4096/32 3/4096/64 3/8192/32 3/8192/64 4/4096/8 4/4096/16 4/4096/32 4/4096/64 4/8192/32 4/8192/64 5/4096/2 5/4096/8 5/8192/1 5/8192/32 5/8192/64 6/4096/2 6/4096/4 6/4096/8 6/8192/32 6/8192/64",
	"SP":       "3/4096/64 4/4096/32 4/4096/64 5/4096/32 5/4096/64 6/4096/32 6/4096/64",
	"Graph500": "2/4096/8 2/4096/16 2/4096/32 2/8192/64 3/4096/1 3/4096/4 3/4096/8 3/4096/16 3/8192/16 3/8192/32 3/8192/64 4/4096/1 4/4096/2 4/4096/4 4/4096/8 4/8192/16 4/8192/32 4/8192/64 5/4096/1 5/4096/2 5/4096/4 5/4096/8 5/8192/4 5/8192/8 5/8192/16 5/8192/32 5/8192/64 5/16384/32 5/16384/64 6/4096/1 6/4096/2 6/4096/4 6/8192/8 6/8192/16 6/8192/32 6/16384/64",
	"Hashing":  "3/4096/32 3/4096/64 4/4096/32",
	"AMG2013":  "2/4096/2 2/4096/4 2/4096/8 2/4096/16 2/8192/1 2/8192/8 2/8192/16 2/8192/32 2/8192/64 3/4096/1 3/4096/2 3/4096/4 3/8192/8 3/8192/16 3/8192/32 3/8192/64 3/16384/32 3/16384/64 4/4096/1 4/4096/2 4/4096/4 4/8192/8 4/8192/16 4/8192/32 4/8192/64 4/16384/32 4/16384/64 5/4096/1 5/4096/2 5/4096/4 5/8192/8 5/8192/16 5/8192/32 5/8192/64 5/16384/32 5/16384/64 6/4096/1 6/4096/2 6/8192/1 6/8192/2 6/8192/4 6/8192/8 6/16384/32 6/16384/64",
	"CG":       "3/4096/32 3/4096/64 4/4096/8 4/4096/16 4/4096/32 4/4096/64 5/4096/8 5/4096/16 5/4096/32 5/4096/64 6/4096/8 6/4096/16 6/4096/32 6/4096/64 6/8192/64",
}

// mixKey is one computed result the generator may ask for again.
type mixKey struct {
	class string // the class that computed it: analytic, exact or cold
	body  []byte // the request
	resp  []byte // the body of the response that computed it
	// last is the round of the key's last use; stored marks a key
	// already asked for as a store hit (it is back in the LRU after).
	last   int
	stored bool
	// What the in-process check and the ladder rebuild it from.
	k     kernel // profiled workload tuple
	point int    // exact: index into grid(); analytic: -1
	geom  customGeom
}

// customGeom is an analytic request's custom single-cache design.
type customGeom struct {
	Tech, Mem   string
	Line, Pages uint64
}

func (g customGeom) backend(footprint uint64) (design.Backend, error) {
	reg := design.DefaultRegistry()
	ct, err := reg.Tech(g.Tech)
	if err != nil {
		return design.Backend{}, err
	}
	mt, err := reg.Tech(g.Mem)
	if err != nil {
		return design.Backend{}, err
	}
	return design.Backend{
		Name:   "custom/mix",
		Caches: []design.LevelSpec{{Name: "L4", Tech: ct, Size: g.Line * g.Pages, Line: g.Line, Assoc: 16}},
		Memory: design.MemorySpec{Name: mt.Name + "-mem", Tech: mt, Capacity: footprint},
	}, nil
}

// mixReq is one request of a round and what came back.
type mixReq struct {
	class string // hit, store_hit, analytic, deadline, exact or cold
	key   *mixKey
	// Response.
	status int
	cache  string
	body   []byte
	ms     float64
	err    error
}

// mix is the serve_mix workload: a closed loop of one client per CPU
// sending seeded rounds of requests over loopback to an in-process
// memsimd server (serve.New(...).Handler() behind httptest), wired as
// cmd/memsimd wires it with its defaults plus deployment settings: a
// durable store and the result LRU's size.
type mix struct {
	o      options
	rng    *rand.Rand
	dir    string
	guard  *serve.StoreGuard
	ev     *serve.Evaluator
	hs     *httptest.Server
	client *http.Client

	rounds int
	// newKeys counts the keys computed in each round; recent holds the
	// last two rounds' keys, all every key in order of computation.
	newKeys  []int
	recent   [2][]*mixKey
	all      []*mixKey
	coldNext int
	used     map[string]bool
	// verify lists the exact and cold keys the in-process check re-evaluates.
	verify []*mixKey
	// classMS holds the measured rounds' latencies by class.
	classMS map[string][]float64
	// lastRound keeps the latest measured round for the ladder.
	lastRound []*mixReq
	errs      errList
	setups    int

	// Filled by check: the in-process profiles of the warm workloads.
	profiles map[string]*exp.WorkloadProfile
}

func (m *mix) setUp(o options) error {
	m.setups++
	*m = mix{o: o, setups: m.setups, rng: rand.New(rand.NewSource(o.seed)), used: map[string]bool{}}
	m.dir = filepath.Join(o.tmp, fmt.Sprint("mix-", m.setups))
	st, err := store.Open(m.dir, store.Options{})
	if err != nil {
		return err
	}
	reopen := func() (*store.Store, error) { return store.Open(m.dir, store.Options{}) }
	m.guard = serve.NewStoreGuard(st, reopen, fault.RetryPolicy{}, nil)
	m.ev = serve.NewEvaluator(0, nil)
	m.ev.SetStoreGuard(m.guard)
	srv := serve.New(serve.Config{Runner: m.ev, CacheEntries: mixLRU, StoreGuard: m.guard})
	m.hs = httptest.NewServer(srv.Handler())
	m.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.workers}}

	// Warm the seven workloads' profiles the way memsimd -warm does.
	for _, name := range catalog.Names {
		req := serve.EvalRequest{Design: serve.DesignSpec{Family: "reference"}, Workload: name, Scale: benchScale, WorkloadScale: benchWScale}
		if apiErr := req.NormalizeWith(tech.Builtin()); apiErr != nil {
			return apiErr
		}
		if _, err := m.ev.Evaluate(context.Background(), &req); err != nil {
			return err
		}
	}
	// Analytic-only rounds until enough old keys have left the LRU to feed
	// the store-hit class until the measured rounds' own keys have.
	need := mixStore * (mixLRU/(mixCold+mixExact+mixAnalytic) + 4)
	for len(m.eligible(m.rounds)) < need {
		if _, err := m.runRound(nil, false); err != nil {
			return err
		}
	}
	for i := 0; i < mixWarmRounds; i++ {
		if _, err := m.runRound(nil, true); err != nil {
			return err
		}
	}
	m.verify = nil
	m.classMS = map[string][]float64{}
	return nil
}

func (m *mix) tearDown() {
	if m.hs != nil {
		m.hs.Close()
		m.client.CloseIdleConnections()
		m.guard.Close()
		os.RemoveAll(m.dir)
	}
	m.hs = nil
}

// eligible returns the keys that may be asked for as store hits in round
// r: never asked for as one before, and followed by at least mixLRU keys
// computed in later, finished rounds.
func (m *mix) eligible(r int) []*mixKey {
	var out []*mixKey
	for _, k := range m.all {
		if !k.stored && m.newSince(k.last, r) >= mixLRU {
			out = append(out, k)
		}
	}
	return out
}

// newSince counts keys computed in rounds after t and before r.
func (m *mix) newSince(t, r int) int {
	n := 0
	for i := t + 1; i < r && i < len(m.newKeys); i++ {
		n += m.newKeys[i]
	}
	return n
}

func (m *mix) round(tr *tracer) (roundStats, error) {
	return m.runRound(tr, true)
}

// runRound generates, sends and checks one round. A full round has the
// whole make-up; the set-up's fill rounds send only new analytic requests.
func (m *mix) runRound(tr *tracer, full bool) (roundStats, error) {
	var st roundStats
	if full && m.coldNext+mixCold > len(coldTuples) {
		return st, errInputsExhausted
	}
	r := m.rounds
	m.rounds++
	var reqs []*mixReq
	add := func(class string, n int, mk func() (*mixKey, error)) error {
		for i := 0; i < n; i++ {
			k, err := mk()
			if err != nil {
				return err
			}
			reqs = append(reqs, &mixReq{class: class, key: k})
		}
		return nil
	}
	analytic := mixAnalytic
	if !full {
		analytic += mixCold + mixExact
	}
	if err := add("analytic", analytic, m.newAnalytic); err != nil {
		return st, err
	}
	if full {
		hits := append(append([]*mixKey(nil), m.recent[0]...), m.recent[1]...)
		if len(hits) < mixHits {
			return st, fmt.Errorf("round %d: %d keys to hit, need %d", r, len(hits), mixHits)
		}
		pool := m.eligible(r)
		if len(pool) < mixStore {
			return st, fmt.Errorf("round %d: %d keys evicted from the LRU, need %d", r, len(pool), mixStore)
		}
		for _, i := range m.rng.Perm(len(hits))[:mixHits] {
			reqs = append(reqs, &mixReq{class: "hit", key: hits[i]})
		}
		for _, i := range m.rng.Perm(len(pool))[:mixStore] {
			pool[i].stored = true
			reqs = append(reqs, &mixReq{class: "store_hit", key: pool[i]})
		}
		if err := add("deadline", mixDeadline, m.newAnalytic); err != nil {
			return st, err
		}
		if err := add("exact", mixExact, m.newExact); err != nil {
			return st, err
		}
		if err := add("cold", mixCold, m.newCold); err != nil {
			return st, err
		}
	}
	m.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	replays, profiles := m.ev.Replays(), m.ev.ProfilesRun()
	start := time.Now()
	m.send(tr, reqs)
	st.wall = time.Since(start)

	var computed []*mixKey
	var exact, cold int
	for _, q := range reqs {
		st.ops++
		// op_p50_ms is the median LRU hit, the serving front path: a
		// median over the whole mix would fall between classes.
		if q.class == "hit" {
			st.opMS = append(st.opMS, q.ms)
		}
		// Each round profiles another cold tuple, of another cost, so
		// tracing_overhead compares the rest of the round.
		if q.class != "cold" {
			st.same += time.Duration(q.ms * 1e6)
		}
		failed, err := checkMixResponse(q)
		if err != nil {
			m.errs.add("round %d: %v", r, err)
		}
		if failed {
			st.failed++
			continue
		}
		switch q.class {
		case "analytic", "exact", "cold":
			q.key.resp = q.body
			computed = append(computed, q.key)
			if q.class != "analytic" {
				m.verify = append(m.verify, q.key)
			}
		case "deadline":
			// Answered: the server no longer sheds analytic requests on
			// the miss estimate. The key is not reused.
		}
		switch q.class {
		case "exact":
			exact++
		case "cold":
			cold++
		}
		q.key.last = r
	}
	checkCounts(&m.errs, r, m.ev.Replays()-replays, exact, m.ev.ProfilesRun()-profiles, cold)
	m.newKeys = append(m.newKeys, len(computed))
	m.all = append(m.all, computed...)
	m.recent[0], m.recent[1] = m.recent[1], computed
	if full {
		m.lastRound = reqs
	}
	if m.classMS != nil {
		for _, q := range reqs {
			m.classMS[q.class] = append(m.classMS[q.class], q.ms)
		}
	}
	return st, nil
}

// send runs the round's requests on one client per CPU, each sending its
// next request when the previous one is answered.
func (m *mix) send(tr *tracer, reqs []*mixReq) {
	next := make(chan *mixReq, len(reqs))
	for _, q := range reqs {
		next <- q
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < m.o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				t := time.Now()
				tr.time("http."+q.class, func() error { m.do(q); return nil })
				q.ms = float64(time.Since(t)) / 1e6
			}
		}()
	}
	wg.Wait()
}

func (m *mix) do(q *mixReq) {
	req, err := http.NewRequest(http.MethodPost, m.hs.URL+"/v1/evaluate", bytes.NewReader(q.key.body))
	if err != nil {
		q.err = err
		return
	}
	if q.class == "deadline" {
		req.Header.Set("X-Memsimd-Deadline-Ms", strconv.Itoa(mixDeadlineMS))
	}
	resp, err := m.client.Do(req)
	if err != nil {
		q.err = err
		return
	}
	defer resp.Body.Close()
	q.body, q.err = io.ReadAll(resp.Body)
	q.status = resp.StatusCode
	q.cache = resp.Header.Get("X-Memsimd-Cache")
}

// checkMixResponse checks one response against the class the generator
// intended and reports whether it failed. A deadline-bearing request may
// be refused with 503 would_deadline, a failed operation, or answered as
// an analytic miss: the refusal is the fault the benchmark keeps, and a
// server that prices analytic requests for what they cost answers them.
func checkMixResponse(q *mixReq) (failed bool, err error) {
	if q.err != nil {
		return true, fmt.Errorf("%s: %v", q.class, q.err)
	}
	want := map[string]string{"hit": "hit", "store_hit": "store_hit", "analytic": "analytic", "exact": "miss", "cold": "miss"}[q.class]
	if q.class == "deadline" {
		if q.status == http.StatusServiceUnavailable {
			var e struct {
				Error serve.APIError `json:"error"`
			}
			if json.Unmarshal(q.body, &e) != nil || e.Error.Code != serve.CodeWouldDeadline {
				return true, fmt.Errorf("deadline: 503 with body %s, want code %s", q.body, serve.CodeWouldDeadline)
			}
			return true, nil
		}
		want = "analytic"
	}
	if q.status != http.StatusOK || q.cache != want {
		return true, fmt.Errorf("%s: got %d %q, want 200 %q: %s", q.class, q.status, q.cache, want, q.body)
	}
	if (q.class == "hit" || q.class == "store_hit") && !bytes.Equal(q.body, q.key.resp) {
		return false, fmt.Errorf("%s: body %s differs from the miss that computed it: %s", q.class, q.body, q.key.resp)
	}
	return false, nil
}

// checkCounts checks that the Evaluator replayed once per exact miss and
// profiled once per cold miss of round r, and never otherwise.
func checkCounts(errs *errList, r int, replays uint64, exact int, profiles uint64, cold int) {
	if replays != uint64(exact) {
		errs.add("round %d: evaluator replayed %d times for %d exact misses", r, replays, exact)
	}
	if profiles != uint64(cold) {
		errs.add("round %d: evaluator profiled %d times for %d cold misses", r, profiles, cold)
	}
}

// gridNames are the exact class's design paths: the Table 2/3 grid without
// the reference design, which profiles answer without a replay.
var gridNames = func() []string {
	var out []string
	for _, b := range grid(design.DefaultRegistry(), 1<<20)[1:] {
		out = append(out, b.Name)
	}
	return out
}()

// newExact makes a Table 2/3 design request on a warm profile that has not
// been asked before.
func (m *mix) newExact() (*mixKey, error) {
	for {
		w := catalog.Names[m.rng.Intn(len(catalog.Names))]
		p := 1 + m.rng.Intn(len(gridNames))
		if id := fmt.Sprint("exact|", w, "|", p); !m.used[id] {
			m.used[id] = true
			return m.newKey("exact", kernel{name: w, scale: benchScale, wscale: benchWScale}, p, customGeom{},
				map[string]any{"design": gridNames[p-1], "workload": w, "scale": benchScale, "workload_scale": benchWScale})
		}
	}
}

// newAnalytic makes an analytic request for a custom single-cache design
// whose geometry no earlier request had.
func (m *mix) newAnalytic() (*mixKey, error) {
	for {
		w := catalog.Names[m.rng.Intn(len(catalog.Names))]
		g := customGeom{
			Tech:  []string{"eDRAM", "HMC"}[m.rng.Intn(2)],
			Mem:   []string{"DRAM", "PCM", "STTRAM", "FeRAM"}[m.rng.Intn(4)],
			Line:  []uint64{512, 2048, 4096}[m.rng.Intn(3)],
			Pages: 16 + uint64(m.rng.Intn(8192)),
		}
		if id := fmt.Sprint("analytic|", w, "|", g); !m.used[id] {
			m.used[id] = true
			cache := map[string]any{"tech": g.Tech, "size_bytes": g.Line * g.Pages, "line_bytes": g.Line}
			return m.newKey("analytic", kernel{name: w, scale: benchScale, wscale: benchWScale}, -1, g,
				map[string]any{
					"design": map[string]any{"family": "custom", "custom": map[string]any{
						"name": "mix", "caches": []any{cache}, "memory": map[string]any{"tech": g.Mem}}},
					"workload": w, "scale": benchScale, "workload_scale": benchWScale, "fidelity": "analytic",
				})
		}
	}
}

// newCold makes a reference request for the next profile tuple this
// server has never profiled.
func (m *mix) newCold() (*mixKey, error) {
	if m.coldNext == len(coldTuples) {
		return nil, fmt.Errorf("all %d cold profile tuples used", len(coldTuples))
	}
	k := coldTuples[m.coldNext]
	m.coldNext++
	return m.newKey("cold", k, 0, customGeom{},
		map[string]any{"design": "reference", "workload": k.name, "scale": k.scale, "workload_scale": k.wscale, "iters": k.iters})
}

func (m *mix) newKey(class string, k kernel, point int, g customGeom, body map[string]any) (*mixKey, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &mixKey{class: class, body: b, k: k, point: point, geom: g}, nil
}

// check re-evaluates every exact and cold answer of the measured rounds
// in-process through exp, with profiles of its own, and requires the
// served metrics to be the same bit for bit.
func (m *mix) check() error {
	for _, class := range []string{"hit", "store_hit", "analytic", "deadline", "exact", "cold"} {
		fmt.Fprintf(os.Stderr, "perfbench: serve_mix %-9s latency quartiles %.4g ms over %d requests\n",
			class, quartiles(m.classMS[class]), len(m.classMS[class]))
	}
	m.profiles = map[string]*exp.WorkloadProfile{}
	profile := func(k kernel) (*exp.WorkloadProfile, error) {
		id := fmt.Sprint(k)
		if wp, ok := m.profiles[id]; ok {
			return wp, nil
		}
		wp, err := k.profile()
		m.profiles[id] = wp
		return wp, err
	}
	reg := design.DefaultRegistry()
	for _, key := range m.verify {
		wp, err := profile(key.k)
		if err != nil {
			return err
		}
		want := wp.ReferenceEvaluation()
		if key.class == "exact" {
			if want, err = wp.Evaluate(grid(reg, wp.Footprint)[key.point]); err != nil {
				return err
			}
		}
		var got serve.EvalResult
		if err := json.Unmarshal(key.resp, &got); err != nil {
			return err
		}
		if err := sameMetrics(got, want); err != nil {
			m.errs.add("%s %s: %v", key.class, key.body, err)
		}
		if key.class == "cold" {
			delete(m.profiles, fmt.Sprint(key.k))
		}
	}
	return m.errs.err()
}

// sameMetrics compares a served result with an in-process evaluation.
func sameMetrics(got serve.EvalResult, want model.Evaluation) error {
	fields := map[string]float64{
		"amat_ns": want.AMATNanos, "runtime_sec": want.RuntimeSec,
		"dynamic_j": want.DynamicJ, "static_j": want.StaticJ, "total_j": want.TotalJ, "edp": want.EDP,
		"norm_time": want.NormTime, "norm_energy": want.NormEnergy, "norm_edp": want.NormEDP,
	}
	if got.Design != want.Design {
		return fmt.Errorf("design %q, want %q", got.Design, want.Design)
	}
	for name, v := range fields {
		if g, ok := got.Metrics[name]; !ok || g != v {
			return fmt.Errorf("%s = %v, want %v", name, g, v)
		}
	}
	return nil
}

// ladder times the layers on the mix's inputs: recent cold tuples, the
// warm profiles, recent exact and analytic designs, and the latest round's
// requests and result documents. The requests' latencies in the traced
// rounds, less the ladder's cost of the calls each class makes, is the
// unattributed share. Cold requests are left out of it: each profiles a
// tuple of its own, whose cost the ladder's mean over other tuples does
// not give.
func (m *mix) ladder(traced []span) (layers, error) {
	in := ladderIn{dir: m.o.tmp, workers: m.o.workers}
	for _, name := range catalog.Names {
		k := kernel{name: name, scale: benchScale, wscale: benchWScale}
		wp, ok := m.profiles[fmt.Sprint(k)]
		if !ok {
			var err error
			if wp, err = k.profile(); err != nil {
				return nil, err
			}
		}
		in.profiles = append(in.profiles, wp)
	}
	byName := map[string]*exp.WorkloadProfile{}
	for _, wp := range in.profiles {
		byName[wp.Name] = wp
	}
	reg := design.DefaultRegistry()
	for i := len(m.all) - 1; i >= 0 && (len(in.points) < 28 || len(in.predict) < 64 || len(in.kernels) < 7); i-- {
		key := m.all[i]
		switch wp := byName[key.k.name]; key.class {
		case "exact":
			if len(in.points) < 28 {
				in.points = append(in.points, exp.Job{WP: wp, B: grid(reg, wp.Footprint)[key.point]})
			}
		case "analytic":
			b, err := key.geom.backend(wp.Footprint)
			if err != nil {
				return nil, err
			}
			if len(in.predict) < 64 {
				in.predict = append(in.predict, exp.Job{WP: wp, B: b})
			}
		case "cold":
			if len(in.kernels) < 7 {
				in.kernels = append(in.kernels, key.k)
			}
		}
	}
	for _, q := range m.lastRound {
		in.requests = append(in.requests, q.key.body)
		if q.class == "analytic" || q.class == "exact" || q.class == "cold" {
			in.docs = append(in.docs, q.body)
		}
	}
	out, err := ladder(in)
	if err != nil {
		return nil, err
	}
	front := out.normalize + out.key
	miss := front + out.getDoc
	parts := map[string]float64{
		"hit":       front,
		"store_hit": miss,
		"deadline":  miss,
		"analytic":  miss + out.predictOne + out.putDoc,
		"exact":     miss + out.evalPoint + out.putDoc,
	}
	var total, attributed float64
	for _, s := range traced {
		class := s.name[len("http."):]
		if class == "cold" {
			continue
		}
		total += s.dur().Seconds()
		attributed += parts[class]
	}
	out.m["unattributed_share"] = 1 - attributed/total
	return out.m, nil
}
