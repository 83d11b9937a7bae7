package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 5

// env is what a workload's setup gets from the run.
type env struct {
	seed int64
	tr   *tracer // nil in untraced runs
	dir  string  // private scratch directory (store files)
}

// instance is one built workload or probe.
type instance interface {
	// phase runs the workload at its nominal load for dur. With traced set
	// the tracer is on, and out.layer holds the per-layer metrics the
	// workload produces in place.
	phase(ctx context.Context, dur time.Duration, traced bool) (phaseOut, error)
	// samples are the workload's own inputs for the isolated passes.
	samples() []sampleStack
	close()
}

// phaseOut is what a nominal-load phase reports.
type phaseOut struct {
	layer  map[string]float64
	ops    int64
	failed int64
	errs   []string
	opMs   []float64       // per-operation latency, for the trace overhead
	roots  map[string]bool // names of the root spans of an operation
}

// newPhaseOut starts a phase report from the phase's tally.
func newPhaseOut(t *tally, opMs []float64, roots ...string) phaseOut {
	out := phaseOut{layer: map[string]float64{}, ops: t.attempted, failed: t.failed, errs: t.errs,
		opMs: opMs, roots: map[string]bool{}}
	for _, r := range roots {
		out.roots[r] = true
	}
	return out
}

// measured is a built workload that also runs the untraced end-to-end
// phase.
type measured interface {
	instance
	// measure runs the untraced end-to-end phase for dur and fills r.
	measure(ctx context.Context, dur time.Duration, r *result) error
}

type workloadDef struct {
	name  string
	setup func(*env) (instance, error)
}

// workloads are the runs -workload selects; their setups return a measured
// instance. A traced run of one also gives the other workload and each probe
// a short traced phase, for the layers it does not reach itself.
var workloads = []workloadDef{
	{"encode-weights", setupEncode},
	{"train-ring", setupTrain},
}

// probes reach the decode, store and kv layers; BENCHMARK.json does not
// gate them, so they run only as the short traced probes.
var probes = []workloadDef{
	{"decode-fetch", setupDecode},
	{"kv-stream", setupKV},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tally counts attempted and failed operations and keeps the first errors.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	errs              []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// into copies the tally into r, with ok_frac.
func (t *tally) into(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Errors = append(r.Errors, t.errs...)
	ok := 0.0
	if t.attempted > 0 {
		ok = float64(t.attempted-t.failed) / float64(t.attempted)
	}
	r.set("ok_frac", ok, "ratio")
	r.note("error_frac", 1-ok)
}

// setLatency reports a distribution as <name>_p50_ms and <name>_tail_ms.
func (r *result) setLatency(name string, ms []float64) {
	d := summarize(ms)
	r.set(name+"_p50_ms", d.P50, "ms")
	r.set(name+"_tail_ms", d.Tail, "ms")
	if r.Tails == nil {
		r.Tails = map[string]dist{}
	}
	r.Tails[name+"_tail_ms"] = d
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare a.json b.json")
			os.Exit(2)
		}
		if err := compareResults(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(3)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for result files and spans")
	)
	flag.Parse()
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r, err := run(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print()
	if !r.Correct {
		os.Exit(1)
	}
}

func run(def workloadDef, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, dir: scratch}
	r := &result{Workload: def.name, Trace: traced}
	ctx := context.Background()
	if traced {
		err = runTraced(ctx, def, e, dur, r, outDir)
	} else {
		err = runUntraced(ctx, def, e, dur, r)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
	r.Host = currentHost(seed)
	tag := fmt.Sprintf("%s-seed%d-trace%v.json", def.name, seed, traced)
	b, _ := json.MarshalIndent(r, "", "  ")
	if err := os.WriteFile(filepath.Join(outDir, tag), b, 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

// runUntraced builds the workload setupRepeats times (setup_s is the median)
// and measures the last build.
func runUntraced(ctx context.Context, def workloadDef, e *env, dur time.Duration, r *result) error {
	var setups []float64
	var inst measured
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		in, err := def.setup(e)
		if err != nil {
			return fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			in.close()
		} else {
			inst = in.(measured)
		}
	}
	defer inst.close()
	r.set("setup_s", median(setups), "s")
	if err := inst.measure(ctx, dur, r); err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	if _, ok := r.Metrics["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	return nil
}

// runTraced measures the workload's nominal phase untraced and then traced
// (their ratio is trace.overhead_frac), fills the layers this workload does
// not exercise from short probes of the workloads that do, then runs the
// isolated passes on the workload's own inputs.
func runTraced(ctx context.Context, def workloadDef, e *env, dur time.Duration, r *result, outDir string) error {
	e.tr = newTracer()
	inst, err := def.setup(e)
	if err != nil {
		return fmt.Errorf("%s setup: %w", def.name, err)
	}
	defer inst.close()
	phaseDur := dur * 3 / 10
	base, err := inst.phase(ctx, phaseDur, false)
	if err != nil {
		return err
	}
	e.tr.take()

	e.tr.on.Store(true)
	before := snapRuntime()
	var peakG int
	gs := startSampler(10*time.Millisecond, func() { peakG = max(peakG, runtime.NumGoroutine()) })
	out, err := inst.phase(ctx, phaseDur, true)
	gs.stop()
	after := snapRuntime()
	e.tr.on.Store(false)
	if err != nil {
		return err
	}
	spans := e.tr.take()

	layer := out.layer
	ops := float64(max(out.ops, 1))
	layer["go.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1e6 / ops
	layer["proc.cpu_ms_per_op"] = (after.cpu - before.cpu) * 1e3 / ops
	if d := after.totalCPU - before.totalCPU; d > 0 {
		layer["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / d
	} else {
		layer["go.gc_cpu_frac"] = 0
	}
	layer["go.goroutines_peak"] = float64(peakG)
	layer["trace.overhead_frac"] = mean(out.opMs)/mean(base.opMs) - 1
	layer["trace.unattributed_frac"] = rootUnattributed(spans, out.roots)
	r.Attempted, r.Failed = base.ops+out.ops, base.failed+out.failed
	r.Errors = append(append(r.Errors, base.errs...), out.errs...)

	// Probes: a short traced phase of every other workload and probe, for
	// the layers this one does not reach.
	for _, other := range append(append([]workloadDef(nil), workloads...), probes...) {
		if other.name == def.name {
			continue
		}
		pe := &env{seed: e.seed, tr: e.tr, dir: e.dir}
		pinst, err := other.setup(pe)
		if err != nil {
			return fmt.Errorf("probe %s setup: %w", other.name, err)
		}
		e.tr.on.Store(true)
		pout, err := pinst.phase(ctx, probeDur, true)
		e.tr.on.Store(false)
		pinst.close()
		if err != nil {
			return fmt.Errorf("probe %s: %w", other.name, err)
		}
		spans = append(spans, e.tr.take()...)
		r.Attempted += pout.ops
		r.Failed += pout.failed
		r.Errors = append(r.Errors, pout.errs...)
		for k, v := range pout.layer {
			if _, ok := layer[k]; !ok {
				layer[k] = v
			}
		}
	}
	iso, err := isolatedPasses(inst.samples(), e.seed)
	if err != nil {
		return err
	}
	for k, v := range iso {
		if _, ok := layer[k]; !ok {
			layer[k] = v
		}
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", def.name, e.seed)), spans); err != nil {
		return err
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		r.set(m.name, v, m.unit)
	}
	return nil
}

// probeDur is how long a probe of another workload runs in a traced run.
const probeDur = 1500 * time.Millisecond

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// checkf reports an output that did not match its reference.
func checkf(format string, a ...any) error {
	return fmt.Errorf("output check failed: "+format, a...)
}
