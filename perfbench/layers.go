package main

// perLayer is every per-layer metric a traced run reports, in order. A
// metric comes from the run's own workload when that workload exercises the
// layer, otherwise from a short probe of a workload that does, otherwise
// from the isolated passes on the run's own inputs.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_tail_ms", "ms"},
	{"proxy.self_ms", "ms"},
	{"proxy.attempts_per_req", "ratio"},
	{"proxy.hedge_frac", "ratio"},
	{"serve.encode_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.kv_put_ms", "ms"},
	{"serve.kv_get_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.reject_frac", "ratio"},
	{"core.encode_stack_ms", "ms"},
	{"core.decode_stack_ms", "ms"},
	{"quant.to_uint8_ns_per_val", "ns"},
	{"quant.from_uint8_ns_per_val", "ns"},
	{"codec.encode_ms", "ms"},
	{"codec.decode_ms", "ms"},
	{"codec.encode.intra_search_share", "ratio"},
	{"codec.encode.transform_quant_share", "ratio"},
	{"codec.encode.entropy_share", "ratio"},
	{"codec.encode.partition_share", "ratio"},
	{"codec.encode.pool_busy_frac", "ratio"},
	{"codec.decode.pool_busy_frac", "ratio"},
	{"codec.decode.chunks_per_call", "count"},
	{"dct.forward8_ns", "ns"},
	{"dct.forward32_ns", "ns"},
	{"dct.inverse8_ns", "ns"},
	{"dct.inverse32_ns", "ns"},
	{"dct.satd8_ns", "ns"},
	{"dct.quantize32_ns", "ns"},
	{"intra.predict16_ns", "ns"},
	{"cabac.encode_bin_ns", "ns"},
	{"cabac.decode_bin_ns", "ns"},
	{"rans.encode_bin_ns", "ns"},
	{"rans.decode_bin_ns", "ns"},
	{"store.hit_ratio", "ratio"},
	{"store.hit_ms", "ms"},
	{"store.miss_ms", "ms"},
	{"store.chunks_per_miss", "count"},
	{"kv.append_ms", "ms"},
	{"kv.read_ms", "ms"},
	{"kv.alias_frac", "ratio"},
	{"kv.evicted_chunks", "count"},
	{"kv.budget_rejects", "count"},
	{"kv.resident_peak_mb", "MB"},
	{"kv.partial_read_frac", "ratio"},
	{"kv.session_misses", "count"},
	{"allreduce.call_ms", "ms"},
	{"allreduce.encode_share", "ratio"},
	{"allreduce.recv_wait_share", "ratio"},
	{"allreduce.wire_bits_per_step", "bits"},
	{"train.step_ms", "ms"},
	{"train.step_tail_ms", "ms"},
	{"nn.train_step_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.goroutines_peak", "count"},
	{"proc.cpu_ms_per_op", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// stackLayers turns a traced phase's spans and the fleet's counter deltas
// into the proxy and serve layer metrics.
func stackLayers(layer map[string]float64, spans []spanRec, st *stack, before, after stackSnap) {
	by := analyze(spans)
	if p, ok := by["proxy"]; ok {
		layer["proxy.self_ms"] = p.SelfMs
		// Health probes also pass the transport; they have no parent.
		attempts := 0
		for _, s := range spans {
			if s.Name == "proxy.attempt" && s.Parent != 0 {
				attempts++
			}
		}
		layer["proxy.attempts_per_req"] = float64(attempts) / float64(p.N)
		if reqs := after.proxyReqs - before.proxyReqs; reqs > 0 {
			layer["proxy.hedge_frac"] = float64(after.hedges-before.hedges) / float64(reqs)
		}
	}
	for _, route := range []string{"encode", "decode", "kv_put", "kv_get"} {
		if s, ok := by["serve."+route]; ok {
			layer["serve."+route+"_ms"] = s.MeanMs
		}
	}
	if n := after.queueN - before.queueN; n > 0 {
		layer["serve.queue_wait_ms"] = float64(after.queueSum-before.queueSum) / float64(n) / 1e6
	}
	if n := after.serveReqs - before.serveReqs; n > 0 {
		layer["serve.reject_frac"] = float64(after.rejects-before.rejects) / float64(n)
	}
	for _, dir := range []string{"encode", "decode"} {
		busy := after.poolBusy[dir] - before.poolBusy[dir]
		wall := after.poolWall[dir] - before.poolWall[dir]
		if wall > 0 {
			layer["codec."+dir+".pool_busy_frac"] = float64(busy) / float64(wall)
		}
	}
	if calls := after.decCalls - before.decCalls; calls > 0 {
		layer["codec.decode.chunks_per_call"] = float64(after.decChunks-before.decChunks) / float64(calls)
	}
}

// stackSnap is a reading of the fleet's counters.
type stackSnap struct {
	proxyReqs, hedges   int64
	queueN, queueSum    int64
	serveReqs, rejects  int64
	poolBusy, poolWall  map[string]int64
	decCalls, decChunks int64
}

func (st *stack) snap() stackSnap {
	s := stackSnap{poolBusy: map[string]int64{}, poolWall: map[string]int64{}}
	pr := st.proxyReg
	s.proxyReqs = pr.Counter("proxy.encode.requests").Value() + pr.Counter("proxy.decode.requests").Value() + pr.Counter("proxy.kv.requests").Value()
	s.hedges = pr.Counter("proxy.hedges").Value()
	s.queueN, s.queueSum = st.hist("serve.queue_wait_ns")
	s.serveReqs = st.counter("serve.encode.requests") + st.counter("serve.decode.requests") +
		st.counter("serve.kv.put.requests") + st.counter("serve.kv.get.requests")
	s.rejects = st.counter("serve.rejected.queue_full")
	for _, dir := range []string{"encode", "decode"} {
		s.poolBusy[dir] = st.counter("codec." + dir + ".pool.busy_ns")
		s.poolWall[dir] = st.counter("codec." + dir + ".pool.wall_ns")
	}
	s.decCalls = st.counter("codec.decode.calls")
	s.decChunks = st.counter("codec.decode.chunks")
	return s
}
