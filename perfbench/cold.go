package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload/catalog"
)

// cold is the cold_profile workload. Each round profiles fresh instances
// of the seven Table 4 workloads with exp.ProfileWorkloadOpts (sketch on,
// as memsimd serves), persists each profile to a fresh store
// (Store.PutStream plus its manifest) and restores it with
// exp.RestoreProfile. One worker per CPU takes the profiles in seeded order.
type cold struct {
	o   options
	rng *rand.Rand
	// rounds numbers the rounds, naming each round's store directory.
	rounds int
	// last holds the latest round's profiles, the ladder's input.
	last []*exp.WorkloadProfile

	errs errList
	// traced records every profile's traced reference count by workload,
	// compared in check against a plain trace.Counter run of the kernel.
	traced map[string][]uint64
}

func coldKernel(name string) kernel {
	return kernel{name: name, scale: benchScale, wscale: benchWScale}
}

func (c *cold) setUp(o options) error {
	*c = cold{o: o, rng: rand.New(rand.NewSource(o.seed)), traced: map[string][]uint64{}}
	_, err := c.round(nil)
	return err
}

func (c *cold) tearDown() { *c = cold{} }

func (c *cold) round(tr *tracer) (roundStats, error) {
	var st roundStats
	dir := filepath.Join(c.o.tmp, fmt.Sprint("cold-", c.rounds))
	c.rounds++
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return st, err
	}
	defer s.Close()

	names := make(chan string, len(catalog.Names))
	for _, i := range c.rng.Perm(len(catalog.Names)) {
		names <- catalog.Names[i]
	}
	close(names)
	type result struct {
		orig, rest *exp.WorkloadProfile
		d          time.Duration
		err        error
	}
	results := make(chan result, len(catalog.Names))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range names {
				t := time.Now()
				orig, rest, err := profilePersistRestore(tr, s, coldKernel(name))
				results <- result{orig, rest, time.Since(t), err}
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	close(results)

	c.last = c.last[:0]
	reg := design.DefaultRegistry()
	var busy time.Duration
	for r := range results {
		if r.err != nil {
			return st, r.err
		}
		wp := r.orig
		st.ops++
		busy += r.d
		c.last = append(c.last, wp)
		c.traced[wp.Name] = append(c.traced[wp.Name], wp.TotalRefs/(1+exp.DefaultDilution))
		if err := checkSketch(wp); err != nil {
			c.errs.add("%v", err)
		}
		if err := checkRestored(reg, wp, r.rest); err != nil {
			c.errs.add("%v", err)
		}
	}
	// The seven profiles differ in size, so a round reports the mean of
	// its profiles' own latencies, each taken beside the other workers'
	// profiles; goodput_per_s divides by the round's wall time instead.
	st.opMS = []float64{float64(busy) / 1e6 / float64(st.ops)}
	return st, nil
}

// profilePersistRestore is one cold_profile operation.
func profilePersistRestore(tr *tracer, s *store.Store, k kernel) (orig, rest *exp.WorkloadProfile, err error) {
	key := "profile:" + k.name
	err = tr.time("exp.ProfileWorkloadOpts", func() (err error) {
		orig, err = k.profile()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var meta []byte
	err = tr.time("json.Marshal", func() (err error) {
		meta, err = json.Marshal(orig.Manifest())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.time("store.PutStream", func() error { return s.PutStream(key, orig.Boundary, meta) }); err != nil {
		return nil, nil, err
	}
	err = tr.time("exp.RestoreProfile", func() (err error) {
		rest, err = restoreFrom(s, key)
		return err
	})
	return orig, rest, err
}

// checkSketch checks that the sketch counted every boundary reference once.
func checkSketch(wp *exp.WorkloadProfile) error {
	if wp.Sketch == nil {
		return fmt.Errorf("%s: profile carries no sketch", wp.Name)
	}
	if got := wp.Sketch.Loads + wp.Sketch.Stores; got != uint64(wp.Boundary.Len()) {
		return fmt.Errorf("%s: sketch counted %d references, boundary holds %d", wp.Name, got, wp.Boundary.Len())
	}
	return nil
}

// checkRestored checks that a restored profile is the one persisted: the
// same packed blocks byte for byte, the same reference evaluation, the
// same exact replay of the reference design, and the same analytic answer.
func checkRestored(reg *design.Registry, orig, rest *exp.WorkloadProfile) error {
	if orig.Boundary.Blocks() != rest.Boundary.Blocks() || orig.Boundary.Len() != rest.Boundary.Len() {
		return fmt.Errorf("%s: restored boundary has %d refs in %d blocks, persisted %d in %d",
			orig.Name, rest.Boundary.Len(), rest.Boundary.Blocks(), orig.Boundary.Len(), orig.Boundary.Blocks())
	}
	for i := 0; i < orig.Boundary.Blocks(); i++ {
		a, na := orig.Boundary.EncodedBlock(i)
		b, nb := rest.Boundary.EncodedBlock(i)
		if na != nb || !bytes.Equal(a, b) {
			return fmt.Errorf("%s: restored block %d differs", orig.Name, i)
		}
	}
	if !sameEval(rest.ReferenceEvaluation(), orig.ReferenceEvaluation()) {
		return fmt.Errorf("%s: restored reference evaluation differs", orig.Name)
	}
	ref := reg.Reference(orig.Footprint)
	got, err1 := rest.Evaluate(ref)
	want, err2 := orig.Evaluate(ref)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("%s: replay: %v, %v", orig.Name, err1, err2)
	}
	if !sameEval(got, want) {
		return fmt.Errorf("%s: the restored boundary replays the reference design differently", orig.Name)
	}
	b, err := reg.NMM("N6", "PCM", benchScale, orig.Footprint)
	if err != nil {
		return err
	}
	po, err := orig.Predictor()
	if err != nil {
		return err
	}
	pr, err := rest.Predictor()
	if err != nil {
		return err
	}
	a, err1 := po.Predict(b)
	c, err2 := pr.Predict(b)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("%s: predict: %v, %v", orig.Name, err1, err2)
	}
	if !sameEval(a.Eval, c.Eval) {
		return fmt.Errorf("%s: restored profile predicts %s differently", orig.Name, b.Name)
	}
	return nil
}

// check runs each kernel once into a plain trace.Counter: every profile
// must have traced exactly that many references.
func (c *cold) check() error {
	for _, name := range catalog.Names {
		w, err := coldKernel(name).build()
		if err != nil {
			return err
		}
		var n trace.Counter
		w.Run(&n)
		checkTraced(&c.errs, name, c.traced[name], n.Total())
	}
	return c.errs.err()
}

// checkTraced checks every profile's traced reference count against the
// count a plain trace.Counter run of the same kernel saw.
func checkTraced(errs *errList, name string, traced []uint64, want uint64) {
	for _, got := range traced {
		if got != want {
			errs.add("%s: profile traced %d references, the kernel emits %d", name, got, want)
		}
	}
}

// ladder times the layers on the cold round's inputs: the seven kernels,
// the latest round's profiles, their reference designs, and the requests
// memsimd would profile them for.
func (c *cold) ladder([]span) (layers, error) {
	in := ladderIn{dir: c.o.tmp, workers: c.o.workers, profiles: c.last}
	reg := design.DefaultRegistry()
	for _, wp := range c.last {
		in.kernels = append(in.kernels, coldKernel(wp.Name))
		j := exp.Job{WP: wp, B: reg.Reference(wp.Footprint)}
		in.points = append(in.points, j)
		in.predict = append(in.predict, j)
		body, err := json.Marshal(map[string]any{"design": "reference", "workload": wp.Name, "scale": benchScale, "workload_scale": benchWScale})
		if err != nil {
			return nil, err
		}
		in.requests = append(in.requests, body)
		doc, err := json.Marshal(wp.ReferenceEvaluation())
		if err != nil {
			return nil, err
		}
		in.docs = append(in.docs, doc)
	}
	out, err := ladder(in)
	if err != nil {
		return nil, err
	}
	out.m["unattributed_share"] = 1 - (out.prefix+out.sketch+out.refReplay)/out.profileOp
	return out.m, nil
}
