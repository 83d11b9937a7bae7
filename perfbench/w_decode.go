package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensorgen"
)

// decode-fetch: an open loop of Poisson arrivals at decRate. BENCHMARK.json
// does not gate it; every traced run probes it for the layers only it
// reaches (decode through the proxy and serve, the store). 70% of
// operations POST a container encoded during setup to /v1/decode through
// the proxy; 30% fetch a layer in process from a packed store model whose
// LRU budget holds about a third of the decoded layers. Container and layer popularity are Zipf.
// The containers span the QP × backend families at one shape, so the cost
// of an operation does not hinge on which containers a seed makes popular.
const (
	decContainers      = 16
	decContainerLayers = 2
	decDecodeShare     = 0.7
	decTensors         = 6
	decLayers          = 4   // layers per packed tensor
	decRows            = 128 // packed layer geometry
	decCols            = 256
	decZipfS           = 1.2
	decRate            = 80.0 // op/s, light enough that queueing does not set the layer times
)

type decContainer struct {
	in   weightInput
	body []byte // the container
	ref  []byte // its decode at setup, float32 LE
}

type decodeInst struct {
	e        *env
	st       *stack
	conts    []decContainer
	model    *store.Model
	storeReg *obs.Registry
	tensors  []string
	ref      map[string][][]float32 // tensor → layer → decoded values at setup
	fetchMu  sync.Mutex             // traced runs only: pairs Layer with its hit/miss outcome
}

func setupDecode(e *env) (instance, error) {
	st, err := startStack(0, e.tr)
	if err != nil {
		return nil, err
	}
	in := &decodeInst{e: e, st: st, ref: map[string][][]float32{}}
	if err := in.encodeContainers(); err != nil {
		st.close()
		return nil, err
	}
	if err := in.packModel(); err != nil {
		st.close()
		return nil, err
	}
	return in, nil
}

func (in *decodeInst) close() { in.st.close() }

// encodeContainers encodes the workload's containers through the proxy
// (two at a time), verifies each and decodes the reference in process.
func (in *decodeInst) encodeContainers() error {
	in.conts = make([]decContainer, decContainers)
	var next atomic.Int64
	errs := make(chan error, loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		go func() {
			for {
				i := next.Add(1) - 1
				if i >= decContainers {
					errs <- nil
					return
				}
				if err := in.encodeContainer(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < loadWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (in *decodeInst) encodeContainer(i int64) error {
	w := genStack(in.e.seed, i, decContainerLayers, decRows)
	rep, err := in.st.do(context.Background(), http.MethodPost, w.query(), w.body(), nil)
	if err != nil {
		return err
	}
	if err := statusErr("setup encode", rep, http.StatusOK); err != nil {
		return err
	}
	enc, err := core.UnmarshalEncoded(rep.body)
	if err != nil {
		return checkf("setup encode %d: %v", i, err)
	}
	dec, err := w.opts().DecodeStack(enc)
	if err != nil {
		return checkf("setup encode %d: decode: %v", i, err)
	}
	if _, err := checkStack(enc, w.stack, dec); err != nil {
		return checkf("setup encode %d: %v", i, err)
	}
	var ref []byte
	for _, t := range dec {
		ref = append(ref, f32bytes(t.Data)...)
	}
	in.conts[i] = decContainer{in: w, body: rep.body, ref: ref}
	return nil
}

// packModel encodes the model's tensors in process with the chunk index,
// packs them into a fresh store and opens the model with an LRU budget of
// a third of the decoded layers.
func (in *decodeInst) packModel() error {
	dir, err := os.MkdirTemp(in.e.dir, "store-")
	if err != nil {
		return err
	}
	in.storeReg = obs.NewRegistry()
	s, err := store.Open(dir, in.storeReg)
	if err != nil {
		return err
	}
	var entries []store.PackEntry
	for t := 0; t < decTensors; t++ {
		rng := rngFor(in.e.seed, int64(1000+t))
		raw := tensorgen.WeightStack(rng, decLayers, decRows, decCols, 0.5)
		stack := make([]*core.Tensor, decLayers)
		for l, d := range raw {
			stack[l] = core.FromSlice(decRows, decCols, d)
		}
		o := core.DefaultOptions()
		o.Index = true
		if t%2 == 1 {
			o.Backend = codec.BackendRANS
		}
		enc, err := o.EncodeStack(stack, weightQPs[t%4])
		if err != nil {
			return fmt.Errorf("pack encode: %w", err)
		}
		dec, err := o.DecodeStack(enc)
		if err != nil {
			return fmt.Errorf("pack reference decode: %w", err)
		}
		name := fmt.Sprintf("w%d", t)
		in.tensors = append(in.tensors, name)
		for _, d := range dec {
			in.ref[name] = append(in.ref[name], d.Data)
		}
		entries = append(entries, store.PackEntry{Name: name, Enc: enc})
	}
	if _, err := s.Pack("model", entries); err != nil {
		return err
	}
	o := core.DefaultOptions()
	o.Metrics = in.storeReg
	budget := int64(decTensors*decLayers*decRows*decCols*4) / 3
	in.model, err = s.OpenModel("model", o, budget)
	return err
}

// decOp is one generated operation: a decode of container idx, or a fetch
// of layer idx of the packed model.
type decOp struct {
	decode bool
	idx    int
}

// genDecOps draws n operations for a window from rng.
func genDecOps(rng *rand.Rand, n int) []decOp {
	zc := rand.NewZipf(rng, decZipfS, 1, decContainers-1)
	zl := rand.NewZipf(rng, decZipfS, 1, decTensors*decLayers-1)
	ops := make([]decOp, n)
	for i := range ops {
		if rng.Float64() < decDecodeShare {
			ops[i] = decOp{true, int(zc.Uint64())}
		} else {
			ops[i] = decOp{false, int(zl.Uint64())}
		}
	}
	return ops
}

// runOp performs and verifies one operation.
func (in *decodeInst) runOp(ctx context.Context, op decOp, req int64) error {
	if op.decode {
		c := &in.conts[op.idx]
		sp := in.e.tr.begin("client.decode", 0, req)
		rep, err := in.st.do(ctx, http.MethodPost, "/v1/decode", c.body, sp)
		sp.end()
		if err != nil {
			return err
		}
		if err := statusErr("decode", rep, http.StatusOK); err != nil {
			return err
		}
		if !bytes.Equal(rep.body, c.ref) {
			return checkf("decode of container %d differs from the setup decode", op.idx)
		}
		return nil
	}
	name, layer := in.tensors[op.idx/decLayers], op.idx%decLayers
	sp := in.e.tr.begin("client.fetch", 0, req)
	t, err := in.fetch(name, layer, sp)
	sp.end()
	if err != nil {
		return err
	}
	want := in.ref[name][layer]
	for i, v := range t.Data {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			return checkf("layer %s/%d value %d differs from the setup decode", name, layer, i)
		}
	}
	return nil
}

// fetch calls Model.Layer. Traced, it also classifies the call as a hit or
// a miss; the model serializes Layer calls under its own lock anyway, so
// the extra lock only moves where a waiting caller waits.
func (in *decodeInst) fetch(name string, layer int, parent *span) (*core.Tensor, error) {
	if !in.e.tr.active() {
		return in.model.Layer(name, layer)
	}
	sp := in.e.tr.begin("store.layer", parent.id(), parent.rec.Req)
	in.fetchMu.Lock()
	before := in.model.Stats().Misses
	t, err := in.model.Layer(name, layer)
	miss := in.model.Stats().Misses > before
	in.fetchMu.Unlock()
	sp.rec.Name = "store.hit"
	if miss {
		sp.rec.Name = "store.miss"
	}
	sp.end()
	return t, err
}

// gen returns a genFunc drawing decode-fetch operations from rng.
func (in *decodeInst) gen(rng *rand.Rand, t *tally) genFunc {
	var reqs int64
	return func(rate float64, from, win time.Duration) []*openOp {
		n := int(math.Round(rate * win.Seconds()))
		kinds := genDecOps(rng, n)
		due := arrivals(rng, n, from, win)
		ops := make([]*openOp, n)
		for i := range ops {
			op := kinds[i]
			reqs++
			req := reqs
			ops[i] = &openOp{due: due[i], key: -1, run: func(ctx context.Context) error {
				err := in.runOp(ctx, op, req)
				t.record(err)
				return err
			}}
		}
		return ops
	}
}

func (in *decodeInst) phase(ctx context.Context, dur time.Duration, traced bool) (phaseOut, error) {
	var t tally
	rng := rand.New(rand.NewSource(in.e.seed + 1))
	before := in.st.snap()
	st0 := in.model.Stats()
	chunks0 := in.storeReg.Counter("codec.decode.chunks").Value()
	ops := runNominal(ctx, in.gen(rng, &t), decRate, dur)
	ts := timings(ops)
	out := newPhaseOut(&t, latenciesMs(ts), "client.decode", "client.fetch")
	if !traced {
		return out, nil
	}
	spans := in.e.tr.snapshot()
	out.layer["loadgen.lag_tail_ms"] = summarize(lagsMs(ts)).Tail
	stackLayers(out.layer, spans, in.st, before, in.st.snap())
	st1 := in.model.Stats()
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	if hits+misses > 0 {
		out.layer["store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	by := analyze(spans)
	if s, ok := by["store.hit"]; ok {
		out.layer["store.hit_ms"] = s.MeanMs
	}
	if s, ok := by["store.miss"]; ok {
		out.layer["store.miss_ms"] = s.MeanMs
	}
	if misses > 0 {
		out.layer["store.chunks_per_miss"] = float64(in.storeReg.Counter("codec.decode.chunks").Value()-chunks0) / float64(misses)
	}
	return out, nil
}

func (in *decodeInst) samples() []sampleStack {
	var out []sampleStack
	for i := calibCount; i < calibCount+4; i++ {
		w := in.conts[i].in
		out = append(out, sampleStack{stack: w.stack, qp: w.qp, backend: w.backend})
	}
	return out
}
