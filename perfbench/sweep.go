package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/cache"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/tech"
)

// The sizing every workload shares: the design-space divisor and the
// workload footprint divisor at which the analytic accuracy envelope is
// asserted, and at which profiling the seven Table 4 workloads takes
// about two seconds on one core.
const (
	benchScale  = 64
	benchWScale = 2048
)

// grid returns the Table 2/3 design grid for one profiled workload:
// reference, 4LC and 4LCNVM over EH1-EH8, NMM over N1-N9 (92 points).
func grid(reg *design.Registry, footprint uint64) []design.Backend {
	out := []design.Backend{reg.Reference(footprint)}
	for _, cfg := range reg.EHConfigs() {
		for _, llc := range tech.LLCs() {
			out = append(out, reg.FourLCWith(cfg, llc, benchScale, footprint))
			for _, nvm := range tech.NVMs() {
				out = append(out, design.FourLCNVM(cfg, llc, nvm, benchScale, footprint))
			}
		}
	}
	for _, cfg := range reg.NConfigs() {
		for _, nvm := range tech.NVMs() {
			out = append(out, reg.NMMWith(cfg, nvm, benchScale, footprint))
		}
	}
	return out
}

// sweep is the sweep_exact workload. Set-up profiles the seven Table 4
// workloads once; each round exact-replays the whole grid of every
// workload through exp.RunJobs, one call per workload, and predicts every
// point analytically. The seed orders the workloads and the points.
type sweep struct {
	o        options
	profiles []*exp.WorkloadProfile
	// groups holds each workload's grid as jobs, in seeded order.
	groups [][]exp.Job
	preds  map[*exp.WorkloadProfile]*analytic.Predictor
	// first holds the first round's exact and analytic results, which
	// every later round must repeat bit for bit.
	first, firstPred [][]model.Evaluation
	errs             errList
}

func (s *sweep) setUp(o options) error {
	s.o = o
	rng := rand.New(rand.NewSource(o.seed))
	suite, err := exp.NewSuite(exp.Config{Scale: benchScale, WorkloadScale: benchWScale, Workers: o.workers})
	if err != nil {
		return err
	}
	s.profiles = suite.Profiles
	s.preds = map[*exp.WorkloadProfile]*analytic.Predictor{}
	s.groups = nil
	for _, i := range rng.Perm(len(s.profiles)) {
		wp := s.profiles[i]
		p, err := wp.Predictor()
		if err != nil {
			return err
		}
		s.preds[wp] = p
		backs := grid(suite.Registry(), wp.Footprint)
		jobs := make([]exp.Job, len(backs))
		for k, j := range rng.Perm(len(backs)) {
			jobs[k] = exp.Job{WP: wp, B: backs[j]}
		}
		s.groups = append(s.groups, jobs)
	}
	s.first, s.firstPred = nil, nil
	_, err = s.round(nil)
	return err
}

func (s *sweep) tearDown() { *s = sweep{} }

func (s *sweep) round(tr *tracer) (roundStats, error) {
	var st roundStats
	var results, predicted [][]model.Evaluation
	var slowest time.Duration
	start := time.Now()
	for _, jobs := range s.groups {
		var res []model.Evaluation
		t := time.Now()
		err := tr.time("exp.RunJobs", func() (err error) {
			res, err = exp.RunJobs(context.Background(), jobs, s.o.workers)
			return err
		})
		if err != nil {
			return st, err
		}
		slowest = max(slowest, time.Since(t))
		pred := make([]model.Evaluation, len(jobs))
		for i, j := range jobs {
			err := tr.time("analytic.Predict", func() error {
				p, err := s.preds[j.WP].Predict(j.B)
				if err == nil {
					pred[i] = p.Eval
				}
				return err
			})
			if err != nil {
				return st, err
			}
		}
		st.ops += len(jobs)
		st.failed += checkSweepPoints(&s.errs, jobs, res, pred)
		results = append(results, res)
		predicted = append(predicted, pred)
	}
	st.wall = time.Since(start)
	// The seven grids differ in size, so a round reports its slowest grid's
	// exact sweep: a median over single grids would jump from one
	// workload's grid to another's with noise, and a mean per grid would
	// repeat goodput_per_s.
	st.opMS = []float64{float64(slowest) / 1e6}

	if s.first == nil {
		s.first, s.firstPred = results, predicted
		return st, nil
	}
	checkPasses(&s.errs, s.groups, s.first, results)
	checkPasses(&s.errs, s.groups, s.firstPred, predicted)
	return st, nil
}

// checkPasses checks that a later pass repeats the first bit for bit.
func checkPasses(errs *errList, groups [][]exp.Job, first, later [][]model.Evaluation) {
	for g, jobs := range groups {
		for i, j := range jobs {
			if !sameEval(later[g][i], first[g][i]) {
				errs.add("%s on %s: a later pass differs from the first", j.B.Name, j.WP.Name)
			}
		}
	}
}

// checkSweepPoints checks one workload's grid and returns how many points
// failed. A point fails when its analytic prediction lies outside the
// published per-point envelope of exact replay. The mean AMAT error over
// the grid must lie within the mean envelope, and the reference design
// must normalize to 1.
func checkSweepPoints(errs *errList, jobs []exp.Job, exact, pred []model.Evaluation) (failed int) {
	var sum float64
	for i, j := range jobs {
		ea := relErr(pred[i].AMATNanos, exact[i].AMATNanos)
		ee := relErr(pred[i].EDP, exact[i].EDP)
		sum += ea
		if ea > analytic.AMATTolerance || ee > analytic.EDPTolerance {
			failed++
		}
		if j.B.Name == "reference" {
			e := exact[i]
			if !unity(e.NormTime) || !unity(e.NormEnergy) || !unity(e.NormEDP) {
				errs.add("reference on %s normalizes to %g/%g/%g, want 1", j.WP.Name, e.NormTime, e.NormEnergy, e.NormEDP)
			}
		}
	}
	if mean := sum / float64(len(jobs)); mean > analytic.MeanAMATTolerance {
		errs.add("%s: mean analytic AMAT error %.4f over the grid (bound %.2f)", jobs[0].WP.Name, mean, analytic.MeanAMATTolerance)
	}
	return failed
}

// unity reports whether a normalized metric is 1 up to rounding: the exact
// path divides the design's figures by the reference's.
func unity(x float64) bool { return math.Abs(x-1) <= 1e-12 }

// check adds what needs its own replay: the first back-end level of one
// design per family must see exactly the boundary stream's references.
func (s *sweep) check() error {
	for _, jobs := range s.groups {
		seen := map[string]bool{}
		for _, j := range jobs {
			family, _, _ := strings.Cut(j.B.Name, "/")
			if seen[family] {
				continue
			}
			seen[family] = true
			if err := checkFirstLevel(j); err != nil {
				s.errs.add("%v", err)
			}
		}
	}
	var worst, sum float64
	var n int
	for g, jobs := range s.groups {
		for i := range jobs {
			e := relErr(s.firstPred[g][i].AMATNanos, s.first[g][i].AMATNanos)
			sum += e
			n++
			worst = max(worst, e)
			if ee := relErr(s.firstPred[g][i].EDP, s.first[g][i].EDP); ee > analytic.EDPTolerance || e > analytic.AMATTolerance {
				fmt.Fprintf(os.Stderr, "perfbench: %s on %s: analytic outside its envelope: AMAT error %.4f (bound %.2f), EDP error %.4f (bound %.2f)\n",
					jobs[i].B.Name, jobs[i].WP.Name, e, analytic.AMATTolerance, ee, analytic.EDPTolerance)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep_exact analytic AMAT error over %d points: mean %.5f, max %.5f\n", n, sum/float64(n), worst)
	return s.errs.err()
}

// checkFirstLevel replays j's boundary stream into a fresh back end and
// checks that its first level saw every boundary reference once.
func checkFirstLevel(j exp.Job) error {
	built, err := j.B.Build()
	if err != nil {
		return err
	}
	built.Replay(j.WP.Boundary)
	built.Flush()
	return firstLevelErr(j, built.Snapshot()[0].Stats)
}

// firstLevelErr checks a back end's first-level statistics against the
// boundary stream j replayed into it.
func firstLevelErr(j exp.Job, first cache.Stats) error {
	if got := first.Loads + first.Stores; got != uint64(j.WP.Boundary.Len()) {
		return fmt.Errorf("%s on %s: first back-end level saw %d references, boundary holds %d", j.B.Name, j.WP.Name, got, j.WP.Boundary.Len())
	}
	return nil
}

// ladder times the layers on the sweep's inputs: the seven kernels, their
// profiles, a seeded seventh of the grid replayed one point at a time, the
// whole grid predicted and, as requests and result documents, validated,
// keyed and stored.
func (s *sweep) ladder([]span) (layers, error) {
	in := ladderIn{dir: s.o.tmp, workers: s.o.workers, profiles: s.profiles}
	for _, wp := range s.profiles {
		in.kernels = append(in.kernels, kernel{name: wp.Name, scale: benchScale, wscale: benchWScale})
	}
	for g, jobs := range s.groups {
		for i, j := range jobs {
			if i%7 == 0 {
				in.points = append(in.points, j)
			}
			in.predict = append(in.predict, j)
			body, err := json.Marshal(map[string]any{"design": j.B.Name, "workload": j.WP.Name, "scale": benchScale, "workload_scale": benchWScale})
			if err != nil {
				return nil, err
			}
			in.requests = append(in.requests, body)
			doc, err := json.Marshal(s.first[g][i])
			if err != nil {
				return nil, err
			}
			in.docs = append(in.docs, doc)
		}
	}
	out, err := ladder(in)
	if err != nil {
		return nil, err
	}
	out.m["unattributed_share"] = 1 - out.pointParts/out.evalPoint
	return out.m, nil
}
