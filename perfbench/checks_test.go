package main

import (
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/cache"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
)

// Every check the benchmark makes must reject a perturbed result. Each
// test below passes the check an unperturbed result first, then results
// with one thing changed.

// tinyProfile profiles SP at a footprint small enough for a unit test.
func tinyProfile(t *testing.T) *exp.WorkloadProfile {
	t.Helper()
	wp, err := kernel{name: "SP", scale: benchScale, wscale: 16384}.profile()
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

func TestSweepPointChecks(t *testing.T) {
	wp := &exp.WorkloadProfile{Name: "W"}
	jobs := make([]exp.Job, 10)
	exact := make([]model.Evaluation, len(jobs))
	for i := range jobs {
		jobs[i] = exp.Job{WP: wp, B: design.Backend{Name: "NMM/N1/PCM"}}
		exact[i] = model.Evaluation{AMATNanos: 10 + float64(i), EDP: 3, NormTime: 2, NormEnergy: 2, NormEDP: 4}
	}
	jobs[0].B.Name = "reference"
	exact[0].NormTime, exact[0].NormEnergy, exact[0].NormEDP = 1, 1, 1

	run := func(perturb func(pred, exact []model.Evaluation)) (int, error) {
		e := append([]model.Evaluation(nil), exact...)
		pred := append([]model.Evaluation(nil), exact...)
		perturb(pred, e)
		var errs errList
		failed := checkSweepPoints(&errs, jobs, e, pred)
		return failed, errs.err()
	}
	if failed, err := run(func(_, _ []model.Evaluation) {}); failed != 0 || err != nil {
		t.Fatalf("unperturbed grid: %d failed, %v", failed, err)
	}
	if failed, err := run(func(p, _ []model.Evaluation) { p[3].AMATNanos *= 1.05 }); failed != 1 || err != nil {
		t.Errorf("one AMAT 5%% off: %d failed, %v; want 1 failed point", failed, err)
	}
	if failed, _ := run(func(p, _ []model.Evaluation) { p[4].EDP *= 1.07 }); failed != 1 {
		t.Errorf("one EDP 7%% off: %d failed, want 1", failed)
	}
	if failed, err := run(func(p, _ []model.Evaluation) {
		for i := range p {
			p[i].AMATNanos *= 1.02
		}
	}); failed != 0 || err == nil {
		t.Errorf("every AMAT 2%% off: %d failed, %v; want the mean check to fail", failed, err)
	}
	if _, err := run(func(_, e []model.Evaluation) { e[0].NormEDP = 1.001 }); err == nil {
		t.Error("a reference normalizing to 1.001 passed")
	}
}

func TestCheckPasses(t *testing.T) {
	jobs := [][]exp.Job{{{WP: &exp.WorkloadProfile{Name: "W"}, B: design.Backend{Name: "4LC/EH1/eDRAM"}}}}
	first := [][]model.Evaluation{{{AMATNanos: 3}}}
	var errs errList
	checkPasses(&errs, jobs, first, [][]model.Evaluation{{{AMATNanos: 3}}})
	if err := errs.err(); err != nil {
		t.Fatal(err)
	}
	checkPasses(&errs, jobs, first, [][]model.Evaluation{{{AMATNanos: math.Nextafter(3, 4)}}})
	if errs.err() == nil {
		t.Error("a pass one ulp off the first passed")
	}
}

func TestFirstLevel(t *testing.T) {
	wp := tinyProfile(t)
	j := exp.Job{WP: wp, B: design.DefaultRegistry().Reference(wp.Footprint)}
	if err := checkFirstLevel(j); err != nil {
		t.Fatal(err)
	}
	n := uint64(wp.Boundary.Len())
	if err := firstLevelErr(j, cache.Stats{Loads: n - 10, Stores: 9}); err == nil {
		t.Error("a first level that missed a reference passed")
	}
}

func TestColdChecks(t *testing.T) {
	wp := tinyProfile(t)
	if err := checkSketch(wp); err != nil {
		t.Fatal(err)
	}
	bad := *wp
	sk := *wp.Sketch
	sk.Stores++
	bad.Sketch = &sk
	if checkSketch(&bad) == nil {
		t.Error("a sketch counting one store too many passed")
	}

	var errs errList
	checkTraced(&errs, "SP", []uint64{100, 100}, 100)
	if err := errs.err(); err != nil {
		t.Fatal(err)
	}
	checkTraced(&errs, "SP", []uint64{100, 101}, 100)
	if errs.err() == nil {
		t.Error("a profile tracing one reference too many passed")
	}
}

func TestRestoredChecks(t *testing.T) {
	wp := tinyProfile(t)
	reg := design.DefaultRegistry()
	st, err := store.Open(filepath.Join(t.TempDir(), "s"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	orig, rest, err := profilePersistRestore(nil, st, kernel{name: "SP", scale: benchScale, wscale: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRestored(reg, orig, rest); err != nil {
		t.Fatal(err)
	}

	restore := func(t *testing.T, perturb func(m *exp.ProfileManifest) *trace.Packed) *exp.WorkloadProfile {
		t.Helper()
		m := *wp.Manifest()
		p := perturb(&m)
		r, err := exp.RestoreProfile(&m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := map[string]func(m *exp.ProfileManifest) *trace.Packed{
		"one boundary address moved": func(*exp.ProfileManifest) *trace.Packed {
			refs := wp.Boundary.Refs()
			refs[len(refs)/2].Addr += 64
			p := &trace.Packed{}
			p.AccessBatch(refs)
			return p
		},
		"reference profile off by one reference": func(m *exp.ProfileManifest) *trace.Packed {
			m.RefProfile.TotalRefs++
			return wp.Boundary
		},
		"sketch off by one load": func(m *exp.ProfileManifest) *trace.Packed {
			sk := *m.Sketch
			sk.Loads++
			m.Sketch = &sk
			return wp.Boundary
		},
	}
	for name, perturb := range cases {
		t.Run(name, func(t *testing.T) {
			if err := checkRestored(reg, wp, restore(t, perturb)); err == nil {
				t.Error("perturbed restore passed")
			}
		})
	}
}

func TestMixResponseCheck(t *testing.T) {
	key := &mixKey{resp: []byte(`{"a":1}`)}
	refusal := []byte(`{"error":{"code":"would_deadline","message":"m"}}`)
	cases := []struct {
		name       string
		q          mixReq
		failed, ok bool
	}{
		{"hit", mixReq{class: "hit", key: key, status: 200, cache: "hit", body: key.resp}, false, true},
		{"hit answered as a store hit", mixReq{class: "hit", key: key, status: 200, cache: "store_hit", body: key.resp}, true, false},
		{"hit with another body", mixReq{class: "hit", key: key, status: 200, cache: "hit", body: []byte(`{"a":2}`)}, false, false},
		{"store hit", mixReq{class: "store_hit", key: key, status: 200, cache: "store_hit", body: key.resp}, false, true},
		{"exact answered as analytic", mixReq{class: "exact", key: key, status: 200, cache: "analytic"}, true, false},
		{"cold failing", mixReq{class: "cold", key: key, status: 500}, true, false},
		{"deadline refused", mixReq{class: "deadline", key: key, status: http.StatusServiceUnavailable, body: refusal}, true, true},
		{"deadline refused for another reason", mixReq{class: "deadline", key: key, status: http.StatusServiceUnavailable,
			body: []byte(`{"error":{"code":"overloaded"}}`)}, true, false},
		{"deadline answered", mixReq{class: "deadline", key: key, status: 200, cache: "analytic"}, false, true},
	}
	for _, c := range cases {
		failed, err := checkMixResponse(&c.q)
		if failed != c.failed || (err == nil) != c.ok {
			t.Errorf("%s: failed=%v err=%v, want failed=%v ok=%v", c.name, failed, err, c.failed, c.ok)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	cases := []struct {
		name              string
		replays, profiles uint64
		ok                bool
	}{
		{"one replay per exact miss, one profile per cold miss", 5, 1, true},
		{"one replay too many", 6, 1, false},
		{"one replay too few", 4, 1, false},
		{"one profile too many", 5, 2, false},
		{"one profile too few", 5, 0, false},
	}
	for _, c := range cases {
		var errs errList
		checkCounts(&errs, 3, c.replays, 5, c.profiles, 1)
		if err := errs.err(); (err == nil) != c.ok {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestSameMetrics(t *testing.T) {
	ev := model.Evaluation{Design: "NMM/N1/PCM", AMATNanos: 1.5, RuntimeSec: 2, DynamicJ: 3, StaticJ: 4, TotalJ: 7, EDP: 14, NormTime: 0.5, NormEnergy: 0.25, NormEDP: 0.125}
	res := func() serve.EvalResult {
		return serve.EvalResult{Design: ev.Design, Metrics: map[string]float64{
			"amat_ns": 1.5, "runtime_sec": 2, "dynamic_j": 3, "static_j": 4, "total_j": 7, "edp": 14,
			"norm_time": 0.5, "norm_energy": 0.25, "norm_edp": 0.125,
		}}
	}
	if err := sameMetrics(res(), ev); err != nil {
		t.Fatal(err)
	}
	for name := range res().Metrics {
		r := res()
		r.Metrics[name] = math.Nextafter(r.Metrics[name], math.Inf(1))
		if sameMetrics(r, ev) == nil {
			t.Errorf("%s one ulp off passed", name)
		}
	}
	r := res()
	r.Design = "NMM/N2/PCM"
	if err := sameMetrics(r, ev); err == nil || !strings.Contains(err.Error(), "design") {
		t.Errorf("another design passed: %v", err)
	}
}
