package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostFacts go with every result; results taken at different GOMAXPROCS are
// not comparable (a 1-CPU and a 2-CPU run schedule the codec pools
// differently), and compare refuses them.
type hostFacts struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	CPUSeconds float64 `json:"process_cpu_s"`
}

func currentHost(seed int64) hostFacts {
	return hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		CPUSeconds: cpuSeconds(),
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSnap is a point-in-time reading of the Go runtime's own counters.
type runtimeSnap struct {
	cpu        float64 // process CPU seconds (getrusage)
	allocBytes uint64
	gcCPU      float64 // runtime/metrics GC CPU seconds
	totalCPU   float64 // runtime/metrics total CPU seconds
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return runtimeSnap{
		cpu:        cpuSeconds(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The last stdout line carries only
// the contract keys; the result file carries the rest.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Host      hostFacts         `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Tails records, per tail metric, the percentile and sample count it
	// was taken from.
	Tails map[string]dist `json:"tails,omitempty"`
	// Notes holds figures printed for the reader but not gated.
	Notes  map[string]float64 `json:"notes,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) note(name string, v float64) {
	if r.Notes == nil {
		r.Notes = map[string]float64{}
	}
	r.Notes[name] = v
}

// print writes the human-readable lines, then the contract line last.
func (r *result) print() {
	h := r.Host
	fmt.Printf("# workload=%s trace=%v seed=%d gomaxprocs=%d nproc=%d go=%s cpu_s=%.3f\n",
		r.Workload, r.Trace, h.Seed, h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.CPUSeconds)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-40s %14.6g %s", n, m.Value, m.Unit)
		if d, ok := r.Tails[n]; ok {
			line += fmt.Sprintf("   (p%g of %d samples)", 100*d.TailQ, d.N)
		}
		fmt.Println(line)
	}
	notes := make([]string, 0, len(r.Notes))
	for n := range r.Notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Printf("%-40s %14.10g   (not gated)\n", n, r.Notes[n])
	}
	for _, e := range r.Errors {
		fmt.Println("# error:", e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// compareResults prints the ratio of each shared metric between two result
// files and refuses results taken at different GOMAXPROCS.
func compareResults(pathA, pathB string) error {
	load := func(p string) (*result, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	if a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s ran at GOMAXPROCS=%d, %s at GOMAXPROCS=%d",
			pathA, a.Host.GOMAXPROCS, pathB, b.Host.GOMAXPROCS)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s/trace=%v with %s/trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	var names []string
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		ratio := 0.0
		if va != 0 {
			ratio = vb / va
		}
		fmt.Printf("%-40s %14.6g %14.6g  ×%.4f %s\n", n, va, vb, ratio, a.Metrics[n].Unit)
	}
	return nil
}
