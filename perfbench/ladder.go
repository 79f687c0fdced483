package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/reuse"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// kernel names one workload instance: a catalog workload at a design scale,
// a footprint divisor and an iteration count (0 = the workload's default).
type kernel struct {
	name   string
	scale  uint64
	wscale uint64
	iters  int
}

func (k kernel) build() (workload.Workload, error) {
	return catalog.New(k.name, workload.Options{Scale: k.wscale, Iters: k.iters})
}

// profile runs k through exp.ProfileWorkloadOpts with the settings memsimd
// serves with: default dilution, sketch on.
func (k kernel) profile() (*exp.WorkloadProfile, error) {
	w, err := k.build()
	if err != nil {
		return nil, err
	}
	return exp.ProfileWorkloadOpts(context.Background(), w, exp.ProfileOptions{Scale: k.scale, Dilution: exp.DefaultDilution})
}

// ladderIn is the input of the layer ladder: the inputs one workload's
// rounds hand to the program, so every layer is timed on the same data the
// end-to-end run uses.
type ladderIn struct {
	kernels  []kernel
	profiles []*exp.WorkloadProfile
	// points are exact design points; each is also predicted, so the
	// analytic error is measured on them.
	points []exp.Job
	// predict are design points timed through the analytic predictor.
	predict  []exp.Job
	requests [][]byte
	docs     [][]byte
	dir      string
	workers  int
}

// ladderOut holds the layer metrics plus the mean cost of each timed call,
// from which a workload works out what its spans leave unattributed.
type ladderOut struct {
	m layers
	// Per-call means, in seconds.
	profileOp, prefix, sketch, refReplay       float64
	putDoc, getDoc, normalize, key, predictOne float64
	// evalPoint is one serial exp.EvaluateCtx; pointParts is the sum of
	// its timed parts (build, decode+replay, model evaluation).
	evalPoint, pointParts float64
}

// ladder times each layer's public functions on in, one call at a time.
func ladder(in ladderIn) (*ladderOut, error) {
	out := &ladderOut{m: layers{}}
	reg := design.DefaultRegistry()

	// Per kernel: generation alone; the kernel through the SRAM prefix
	// into a recording terminal, which packs the boundary stream; the
	// sketch of that stream; the reference design's replay of it; and the
	// whole profiling call that does all of these.
	buf := make([]trace.Ref, 0, trace.BlockRefs)
	var genRefs, sketchRefs uint64
	var gen, prefix, sketch, refReplay, profileOp time.Duration
	for _, k := range in.kernels {
		w, err := k.build()
		if err != nil {
			return nil, err
		}
		var c trace.Counter
		t := time.Now()
		w.Run(&c)
		gen += time.Since(t)
		genRefs += c.Total()

		t = time.Now()
		levels, err := reg.BuildPrefix(k.scale)
		if err != nil {
			return nil, err
		}
		rec := core.NewRecordingMemory(design.CacheLine)
		h, err := core.NewHierarchy(levels, rec)
		if err != nil {
			return nil, err
		}
		w.Run(h)
		h.Flush()
		boundary := rec.Stream()
		prefix += time.Since(t)
		if h.Refs() != c.Total() {
			return nil, fmt.Errorf("%s: prefix saw %d refs, kernel emitted %d", k.name, h.Refs(), c.Total())
		}

		t = time.Now()
		sk, err := reuse.NewSketcher()
		if err != nil {
			return nil, err
		}
		if err := boundary.Batches(buf, func(refs []trace.Ref) error { sk.AccessBatch(refs); return nil }); err != nil {
			return nil, err
		}
		sk.Sketch()
		sketch += time.Since(t)
		sketchRefs += uint64(boundary.Len())

		t = time.Now()
		ref, err := reg.Reference(w.Footprint()).Build()
		if err != nil {
			return nil, err
		}
		ref.Replay(boundary)
		refReplay += time.Since(t)

		t = time.Now()
		if _, err := k.profile(); err != nil {
			return nil, err
		}
		profileOp += time.Since(t)
	}
	nk := float64(len(in.kernels))
	out.m["workload.gen_refs_per_s"] = float64(genRefs) / gen.Seconds()
	out.m["core.prefix_refs_per_s"] = float64(genRefs) / (prefix - gen).Seconds()
	out.m["reuse.sketch_refs_per_s"] = float64(sketchRefs) / sketch.Seconds()
	out.m["reuse.sketch_share"] = sketch.Seconds() / profileOp.Seconds()
	out.m["exp.reference_replay_ms"] = refReplay.Seconds() / nk * 1e3
	out.profileOp = profileOp.Seconds() / nk
	out.prefix = prefix.Seconds() / nk
	out.sketch = sketch.Seconds() / nk
	out.refReplay = refReplay.Seconds() / nk

	// The replayed boundary streams: packing density and decode.
	var bRefs, packed uint64
	var decode time.Duration
	decodeOf := map[*exp.WorkloadProfile]time.Duration{}
	for _, wp := range in.profiles {
		b := wp.Boundary
		bRefs += uint64(b.Len())
		packed += b.PackedBytes()
		t := time.Now()
		if err := b.Batches(buf, func([]trace.Ref) error { return nil }); err != nil {
			return nil, err
		}
		decodeOf[wp] = time.Since(t)
		decode += decodeOf[wp]
	}
	out.m["trace.packed_bytes_per_ref"] = float64(packed) / float64(bRefs)
	out.m["trace.decode_refs_per_s"] = float64(bRefs) / decode.Seconds()

	// Exact design points, one at a time: the whole evaluation, and its
	// parts through the public functions it is made of.
	var build, replay, finish, evalPoint time.Duration
	var replayRefs uint64
	for _, j := range in.points {
		t := time.Now()
		if _, err := j.WP.EvaluateCtx(context.Background(), j.B); err != nil {
			return nil, err
		}
		evalPoint += time.Since(t)

		t = time.Now()
		built, err := j.B.Build()
		if err != nil {
			return nil, err
		}
		build += time.Since(t)
		t = time.Now()
		if err := j.WP.Boundary.Batches(buf, func(refs []trace.Ref) error { built.AccessBatch(refs); return nil }); err != nil {
			return nil, err
		}
		replay += time.Since(t)
		t = time.Now()
		built.Flush()
		if _, err := j.WP.EvaluateProfile(j.B.Name, built.Snapshot()); err != nil {
			return nil, err
		}
		finish += time.Since(t)
		replayRefs += uint64(j.WP.Boundary.Len())
	}
	var pointDecode time.Duration
	for _, j := range in.points {
		pointDecode += decodeOf[j.WP]
	}
	npt := float64(len(in.points))
	out.m["design.build_us"] = build.Seconds() / npt * 1e6
	out.m["exp.replay_refs_per_s"] = float64(replayRefs) / (replay - pointDecode).Seconds()
	out.evalPoint = evalPoint.Seconds() / npt
	out.pointParts = (build + replay + finish).Seconds() / npt

	// The same points through the fan-out scheduler: how many design
	// points share each block decode.
	blocks0 := obs.DecodedBlocks()
	exact, err := exp.RunJobs(context.Background(), in.points, in.workers)
	if err != nil {
		return nil, err
	}
	var pointBlocks uint64
	for _, j := range in.points {
		pointBlocks += uint64(j.WP.Boundary.Blocks())
	}
	out.m["exp.points_per_decode"] = float64(pointBlocks) / float64(obs.DecodedBlocks()-blocks0)

	// Analytic predictions: cost per point, and the worst relative AMAT
	// error against exact replay of the same points.
	preds := map[*exp.WorkloadProfile]*analytic.Predictor{}
	predictor := func(wp *exp.WorkloadProfile) (*analytic.Predictor, error) {
		if p, ok := preds[wp]; ok {
			return p, nil
		}
		p, err := wp.Predictor()
		preds[wp] = p
		return p, err
	}
	var maxErr float64
	for i, j := range in.points {
		p, err := predictor(j.WP)
		if err != nil {
			return nil, err
		}
		pr, err := p.Predict(j.B)
		if err != nil {
			return nil, err
		}
		maxErr = math.Max(maxErr, relErr(pr.Eval.AMATNanos, exact[i].AMATNanos))
	}
	out.m["analytic.max_amat_err"] = maxErr
	var predict time.Duration
	for _, j := range in.predict {
		p, err := predictor(j.WP)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := p.Predict(j.B); err != nil {
			return nil, err
		}
		predict += time.Since(t)
	}
	out.predictOne = predict.Seconds() / float64(len(in.predict))
	out.m["analytic.predict_us"] = out.predictOne * 1e6

	if err := storeLadder(in, out); err != nil {
		return nil, err
	}

	// Request validation and key hashing on the workload's request bodies.
	var normalize, key time.Duration
	cat := tech.Builtin()
	for _, body := range in.requests {
		var r serve.EvalRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		t := time.Now()
		if apiErr := r.NormalizeWith(cat); apiErr != nil {
			return nil, apiErr
		}
		normalize += time.Since(t)
		t = time.Now()
		r.Key()
		key += time.Since(t)
	}
	nr := float64(len(in.requests))
	out.normalize = normalize.Seconds() / nr
	out.key = key.Seconds() / nr
	out.m["serve.normalize_us"] = out.normalize * 1e6
	out.m["serve.key_us"] = out.key * 1e6
	return out, nil
}

// storeLadder persists and restores every profile, and writes and reads
// every document, in a fresh store.
func storeLadder(in ladderIn, out *ladderOut) error {
	dir := filepath.Join(in.dir, "ladder-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var put, restore time.Duration
	for i, wp := range in.profiles {
		meta, err := json.Marshal(wp.Manifest())
		if err != nil {
			return err
		}
		t := time.Now()
		if err := st.PutStream(fmt.Sprint("profile:", i), wp.Boundary, meta); err != nil {
			return err
		}
		put += time.Since(t)
	}
	for i := range in.profiles {
		t := time.Now()
		if _, err := restoreFrom(st, fmt.Sprint("profile:", i)); err != nil {
			return err
		}
		restore += time.Since(t)
	}
	np := float64(len(in.profiles))
	out.m["store.put_stream_ms"] = put.Seconds() / np * 1e3
	out.m["store.restore_ms"] = restore.Seconds() / np * 1e3

	var putDoc, getDoc time.Duration
	for i, d := range in.docs {
		t := time.Now()
		if err := st.PutDoc(fmt.Sprint("doc:", i), d); err != nil {
			return err
		}
		putDoc += time.Since(t)
	}
	for i, d := range in.docs {
		t := time.Now()
		got, ok, err := st.GetDoc(fmt.Sprint("doc:", i))
		getDoc += time.Since(t)
		if err != nil || !ok || !bytes.Equal(got, d) {
			return fmt.Errorf("store: document %d did not read back (ok=%v, err=%v)", i, ok, err)
		}
	}
	nd := float64(len(in.docs))
	out.putDoc = putDoc.Seconds() / nd
	out.getDoc = getDoc.Seconds() / nd
	out.m["store.put_doc_ms"] = out.putDoc * 1e3
	out.m["store.get_doc_us"] = out.getDoc * 1e6
	return nil
}

// restoreFrom reads a persisted profile back: stream, manifest, restore.
func restoreFrom(st *store.Store, key string) (*exp.WorkloadProfile, error) {
	p, meta, ok, err := st.GetStream(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: %s missing", key)
	}
	var m exp.ProfileManifest
	if err := json.Unmarshal(meta, &m); err != nil {
		return nil, err
	}
	return exp.RestoreProfile(&m, p, nil)
}

// relErr is |pred-exact|/|exact|.
func relErr(pred, exact float64) float64 {
	if exact == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-exact) / math.Abs(exact)
}

// sameEval reports whether two evaluations are bit-identical.
func sameEval(a, b model.Evaluation) bool { return a == b }
