package main

// metricDef is one row of BENCHMARK.json. bound is the regression bound of
// an end-to-end metric (a share of the parent's median); per-layer metrics
// have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees, measured with tracing off.
// Every workload reports every row.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"save_ms_p50", "ms", "lower", 0.25},
	{"stall_ms_p50", "ms", "lower", 0.25},
	{"recover_ms_p50", "ms", "lower", 0.25},
	{"maint_ms_p50", "ms", "lower", 0.25},
	{"lifecycle_mb_per_s", "MB/s", "higher", 0.25},
	{"write_amp", "ratio", "lower", 0.05},
	{"read_amp", "ratio", "lower", 0.02},
	{"space_amp", "ratio", "lower", 0.05},
	{"alloc_mb_per_cycle", "MB", "lower", 0.05},
}

// perLayer lists the traced pass's metrics, grouped as the issue groups
// them by the end-to-end metric each should move. A metric a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	// save, CPU side
	{"ckpt.save_self_ms_p50", "ms", "lower", 0},
	{"ckpt.save_alloc_mb", "MB", "lower", 0},
	{"ckpt.save_allocs", "count", "lower", 0},
	{"zero.shard_mb_per_s", "MB/s", "higher", 0},
	// save, backend side
	{"ckpt.save_backend_ms_p50", "ms", "lower", 0},
	{"storage.puts_per_save", "count", "lower", 0},
	{"storage.probes_per_save", "count", "lower", 0},
	{"storage.renames_per_save", "count", "lower", 0},
	{"storage.put_ms_p50", "ms", "lower", 0},
	{"storage.write_mb_per_s", "MB/s", "higher", 0},
	{"storage.save_concurrency", "ratio", "higher", 0},
	{"storage.op_errors", "count", "lower", 0},
	// commit and journal
	{"ckpt.commit_ms_p50", "ms", "lower", 0},
	{"ckpt.commit_ops", "count", "lower", 0},
	{"ckpt.journal_ms_p50", "ms", "lower", 0},
	{"ckpt.journal_ops", "count", "lower", 0},
	{"ckpt.manifest_bytes", "bytes", "lower", 0},
	// content-addressed store
	{"storage.hash_mb_per_s", "MB/s", "higher", 0},
	{"storage.cas_put_mb_per_s", "MB/s", "higher", 0},
	{"storage.blob_puts_per_save", "count", "lower", 0},
	{"storage.dedup_hit_frac", "ratio", "higher", 0},
	// codec, write side
	{"storage.plane_encode_mb_per_s", "MB/s", "higher", 0},
	{"storage.xor_encode_mb_per_s", "MB/s", "higher", 0},
	{"storage.plane_ratio", "ratio", "higher", 0},
	{"storage.xor_ratio", "ratio", "higher", 0},
	{"tensor.planes_split_mb_per_s", "MB/s", "higher", 0},
	{"tensor.rle_mb_per_s", "MB/s", "higher", 0},
	{"tensor.xor_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.codec_stored_over_raw", "ratio", "lower", 0},
	{"ckpt.codec_xor_entry_frac", "ratio", "higher", 0},
	// lazy capture
	{"ckpt.capture_stall_ms_p90", "ms", "lower", 0},
	{"ckpt.capture_hashed_mb", "MB", "lower", 0},
	{"ckpt.capture_spooled_mb", "MB", "lower", 0},
	{"ckpt.capture_layers_reused", "count", "higher", 0},
	{"ckpt.capture_spool_peak_mb", "MB", "lower", 0},
	{"optim.step_ms_p50", "ms", "lower", 0},
	// restore, CPU side
	{"ckpt.open_ms_p50", "ms", "lower", 0},
	{"ckpt.restore_self_ms_p50", "ms", "lower", 0},
	{"ckpt.restore_alloc_mb", "MB", "lower", 0},
	{"ckpt.restore_peak_heap_mb", "MB", "lower", 0},
	{"zero.gather_mb_per_s", "MB/s", "higher", 0},
	// codec, read side
	{"storage.plane_decode_mb_per_s", "MB/s", "higher", 0},
	{"storage.xor_decode_mb_per_s", "MB/s", "higher", 0},
	{"storage.xor_chain_get_ms", "ms", "lower", 0},
	{"storage.cas_get_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.codec_deepest_chain", "count", "lower", 0},
	// restore, backend side
	{"ckpt.restore_backend_ms_p50", "ms", "lower", 0},
	{"storage.gets_per_recover", "count", "lower", 0},
	{"storage.get_ms_p50", "ms", "lower", 0},
	{"storage.read_mb_per_s", "MB/s", "higher", 0},
	{"storage.recover_concurrency", "ratio", "higher", 0},
	// retention and collection
	{"ckpt.retain_ms_p90", "ms", "lower", 0},
	{"ckpt.retain_backend_ops", "count", "lower", 0},
	{"ckpt.gc_blobs_examined", "count", "lower", 0},
	{"ckpt.gc_blobs_reclaimed", "count", "higher", 0},
	{"ckpt.gc_records_scanned", "count", "lower", 0},
	{"storage.lists_per_cycle", "count", "lower", 0},
	{"storage.removes_per_cycle", "count", "lower", 0},
	{"storage.refindex_append_ms", "ms", "lower", 0},
	{"storage.refindex_entries_ms", "ms", "lower", 0},
	// merge
	{"tailor.merge_ms_p50", "ms", "lower", 0},
	{"recipe.from_manifests_ms_p50", "ms", "lower", 0},
	{"tailor.plan_ms_p50", "ms", "lower", 0},
	{"tailor.merge_self_ms_p50", "ms", "lower", 0},
	{"tailor.merge_backend_ms_p50", "ms", "lower", 0},
	{"tailor.raw_copy_frac", "ratio", "higher", 0},
	{"tailor.read_amp", "ratio", "lower", 0},
	{"tailor.shard_file_loads", "count", "lower", 0},
	{"tailor.peak_inflight_mb", "MB", "lower", 0},
	{"tailor.merge_alloc_mb", "MB", "lower", 0},
	// reshard
	{"reshard.reshard_ms_p50", "ms", "lower", 0},
	{"reshard.self_ms_p50", "ms", "lower", 0},
	{"reshard.backend_ms_p50", "ms", "lower", 0},
	{"reshard.spliced_frac", "ratio", "higher", 0},
	{"reshard.peak_inflight_mb", "MB", "lower", 0},
	{"reshard.alloc_mb", "MB", "lower", 0},
	// hub
	{"hub.attach_ms", "ms", "lower", 0},
	{"hub.peer_shared_ratio", "ratio", "higher", 0},
	{"hub.stat_ms", "ms", "lower", 0},
	{"hub.gc_ms", "ms", "lower", 0},
	// once per run: tails and operator-facing costs
	{"ckpt.save_ms_p90", "ms", "lower", 0},
	{"ckpt.recover_ms_p90", "ms", "lower", 0},
	{"ckpt.full_gc_ms", "ms", "lower", 0},
	{"ckpt.scan_ms", "ms", "lower", 0},
	{"tailor.verify_ms", "ms", "lower", 0},
	{"train.resume_ms", "ms", "lower", 0},
	{"train.resume_overhead_ms", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.speed_factor_p50", "ratio", "lower", 0},
	{"storage.other_class_frac", "ratio", "lower", 0},
}

// timedSpans are the spans end-to-end time is made of; probes ("open") are
// not among them.
var timedSpans = map[string]bool{"save": true, "recover": true, "retain": true,
	"from_manifests": true, "plan": true, "merge": true, "reshard": true}

// endToEndValues turns the untraced pass's samples into the end-to-end row:
// the median of each per-cycle quantity over whole periods of the workload.
func endToEndValues(s sampleSet, setupS []float64, period int) map[string]float64 {
	p50 := func(name string) float64 { return median(wholePeriods(s[name], period)) }
	return map[string]float64{
		"setup_s":            median(setupS),
		"save_ms_p50":        p50("save_ref_ms"),
		"stall_ms_p50":       p50("stall_ref_ms"),
		"recover_ms_p50":     p50("recover_ref_ms"),
		"maint_ms_p50":       p50("maint_ref_ms"),
		"lifecycle_mb_per_s": p50("lifecycle_mb_per_s"),
		"write_amp":          p50("write_amp"),
		"read_amp":           p50("read_amp"),
		"space_amp":          p50("space_amp"),
		"alloc_mb_per_cycle": p50("alloc_mb"),
	}
}

// wholePeriods drops the oldest samples so that what is left covers a whole
// number of the workload's periods. A periodic workload (xor chains that
// grow and re-base) then yields the same multiset of count-type samples
// however many cycles a timed run happened to fit, whatever its phase. Runs
// shorter than one period keep everything.
func wholePeriods(samples []float64, period int) []float64 {
	if period <= 1 || len(samples) < period {
		return samples
	}
	return samples[len(samples)%period:]
}

// perLayerValues turns the traced pass's samples, the recorded spans and
// the once-per-run probes into the per-layer row.
func perLayerValues(h *harness) map[string]float64 {
	s := h.traced
	out := map[string]float64{
		"ckpt.save_alloc_mb":           mean(s["save_alloc_mb"]),
		"ckpt.save_allocs":             mean(s["save_allocs"]),
		"ckpt.codec_stored_over_raw":   median(s["codec_stored_over_raw"]),
		"ckpt.codec_xor_entry_frac":    median(s["codec_xor_entry_frac"]),
		"ckpt.codec_deepest_chain":     percentile(s["codec_deepest_chain"], 100),
		"ckpt.capture_stall_ms_p90":    percentile(s["stall_ms"], 90),
		"ckpt.capture_hashed_mb":       mean(s["capture_hashed_mb"]),
		"ckpt.capture_spooled_mb":      mean(s["capture_spooled_mb"]),
		"ckpt.capture_layers_reused":   mean(s["capture_layers_reused"]),
		"optim.step_ms_p50":            median(s["optim.step_ms"]),
		"ckpt.open_ms_p50":             median(s["open_ms"]),
		"ckpt.restore_alloc_mb":        mean(s["restore_alloc_mb"]),
		"ckpt.restore_peak_heap_mb":    percentile(s["restore_peak_heap_mb"], 100),
		"ckpt.retain_ms_p90":           percentile(s["retain_ms"], 90),
		"ckpt.gc_blobs_examined":       mean(s["gc_examined"]),
		"ckpt.gc_blobs_reclaimed":      mean(s["gc_reclaimed"]),
		"tailor.merge_ms_p50":          median(s["merge_ms"]),
		"recipe.from_manifests_ms_p50": median(s["from_manifests_ms"]),
		"tailor.plan_ms_p50":           median(s["plan_ms"]),
		"tailor.raw_copy_frac":         median(s["merge_raw_copy_frac"]),
		"tailor.read_amp":              median(s["merge_read_amp"]),
		"tailor.shard_file_loads":      mean(s["merge_shard_file_loads"]),
		"tailor.peak_inflight_mb":      percentile(s["merge_peak_inflight_mb"], 100),
		"tailor.merge_alloc_mb":        mean(s["merge_alloc_mb"]),
		"reshard.reshard_ms_p50":       median(s["reshard_ms"]),
		"reshard.spliced_frac":         median(s["reshard_spliced_frac"]),
		"reshard.peak_inflight_mb":     percentile(s["reshard_peak_inflight_mb"], 100),
		"reshard.alloc_mb":             mean(s["reshard_alloc_mb"]),
		"ckpt.save_ms_p90":             percentile(s["save_ms"], 90),
		"ckpt.recover_ms_p90":          percentile(s["recover_ms"], 90),
		"bench.speed_factor_p50":       median(s["speed_factor"]),
		"bench.trace_overhead_frac": ratio(median(s["cycle_ms"])-median(h.untraced["cycle_ms"]),
			median(h.untraced["cycle_ms"])),
	}
	for k, v := range h.once {
		out[k] = v
	}
	if h.tr != nil {
		spanValues(h.tr.bySpan(), len(s["cycle_ms"]), median(s["manifest_entries"]), out)
	}
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0 // a layer this workload does not exercise
		}
	}
	return out
}

// spanValues derives the self-time, backend-time, concurrency and op-count
// metrics from the recorded spans.
func spanValues(spans []spanOps, cycles int, entries float64, out map[string]float64) {
	byName := map[string][]spanOps{}
	var all, other, errors, lists, removes int
	for _, so := range spans {
		byName[so.span.name] = append(byName[so.span.name], so)
		if !timedSpans[so.span.name] {
			continue
		}
		for _, op := range so.ops {
			all++
			if op.class == classOther {
				other++
			}
			if op.failed {
				errors++
			}
			switch op.kind {
			case opList:
				lists++
			case opRemove:
				removes++
			}
		}
	}
	out["storage.op_errors"] = float64(errors)
	out["storage.other_class_frac"] = ratio(float64(other), float64(all))
	out["storage.lists_per_cycle"] = ratio(float64(lists), float64(cycles))
	out["storage.removes_per_cycle"] = ratio(float64(removes), float64(cycles))

	self, backend, conc := spanTimes(byName["save"])
	out["ckpt.save_self_ms_p50"] = median(self)
	out["ckpt.save_backend_ms_p50"] = median(backend)
	out["storage.save_concurrency"] = median(conc)
	self, backend, conc = spanTimes(byName["recover"])
	out["ckpt.restore_self_ms_p50"] = median(self)
	out["ckpt.restore_backend_ms_p50"] = median(backend)
	out["storage.recover_concurrency"] = median(conc)
	self, backend, _ = spanTimes(byName["merge"])
	out["tailor.merge_self_ms_p50"] = median(self)
	out["tailor.merge_backend_ms_p50"] = median(backend)
	self, backend, _ = spanTimes(byName["reshard"])
	out["reshard.self_ms_p50"] = median(self)
	out["reshard.backend_ms_p50"] = median(backend)

	saves := byName["save"]
	isPut := func(op opRecord) bool { return op.kind.isPut() }
	out["storage.puts_per_save"] = perSpan(saves, isPut)
	out["storage.probes_per_save"] = perSpan(saves, func(op opRecord) bool { return op.kind.isProbe() })
	out["storage.renames_per_save"] = perSpan(saves, func(op opRecord) bool { return op.kind == opRename })
	out["storage.put_ms_p50"], out["storage.write_mb_per_s"] = opLatency(saves, isPut)
	isCommit := func(op opRecord) bool { return op.class == classCommit || op.class == classPointer }
	isJournal := func(op opRecord) bool { return op.class == classJournal }
	out["ckpt.commit_ops"] = perSpan(saves, isCommit)
	out["ckpt.commit_ms_p50"] = classTime(saves, isCommit)
	out["ckpt.journal_ops"] = perSpan(saves, isJournal)
	out["ckpt.journal_ms_p50"] = classTime(saves, isJournal)
	var manifestBytes int64
	for _, so := range saves {
		for _, op := range so.ops {
			if op.kind.isPut() && manifestName(op.key) {
				manifestBytes += op.bytes
			}
		}
	}
	out["ckpt.manifest_bytes"] = ratio(float64(manifestBytes), float64(len(saves)))
	blobPuts := perSpan(saves, func(op opRecord) bool {
		return op.class == classBlob && (op.kind.isPut() || op.kind == opRename)
	})
	out["storage.blob_puts_per_save"] = blobPuts
	if entries > 0 {
		out["storage.dedup_hit_frac"] = 1 - blobPuts/entries
	}

	recovers := byName["recover"]
	isGet := func(op opRecord) bool { return op.kind.isGet() }
	out["storage.gets_per_recover"] = perSpan(recovers, isGet)
	out["storage.get_ms_p50"], out["storage.read_mb_per_s"] = opLatency(recovers, isGet)

	retains := byName["retain"]
	out["ckpt.retain_backend_ops"] = perSpan(retains, func(opRecord) bool { return true })
	out["ckpt.gc_records_scanned"] = perSpan(retains, func(op opRecord) bool {
		return op.class == classJournal && op.kind.isGet()
	})
}

// spanTimes returns, per span, self time, backend time (the union of its
// busy intervals) and backend concurrency.
func spanTimes(spans []spanOps) (selfMs, backendMs, conc []float64) {
	for _, so := range spans {
		span := interval{so.span.start, so.span.end}
		busy := clip(span, so.busy)
		selfMs = append(selfMs, nsToMs(selfNs(span, busy)))
		backendMs = append(backendMs, nsToMs(unionNs(busy)))
		conc = append(conc, concurrency(busy))
	}
	return selfMs, backendMs, conc
}

// perSpan is the mean number of matching ops per span.
func perSpan(spans []spanOps, match func(opRecord) bool) float64 {
	var n int
	for _, so := range spans {
		for _, op := range so.ops {
			if match(op) {
				n++
			}
		}
	}
	return ratio(float64(n), float64(len(spans)))
}

// opLatency returns the median lifetime of matching ops and the rate their
// bytes moved at while at least one of them was in flight.
func opLatency(spans []spanOps, match func(opRecord) bool) (p50Ms, mbPerS float64) {
	var lat []float64
	var bytes, busyNs int64
	for _, so := range spans {
		var ivs []interval
		for _, op := range so.ops {
			if match(op) {
				lat = append(lat, nsToMs(op.end-op.start))
				bytes += op.bytes
				ivs = append(ivs, interval{op.start, op.end})
			}
		}
		busyNs += unionNs(ivs)
	}
	return median(lat), ratio(float64(bytes)/mb, float64(busyNs)/1e9)
}

// classTime is the median, over spans, of the time matching ops covered.
func classTime(spans []spanOps, match func(opRecord) bool) float64 {
	var ms []float64
	for _, so := range spans {
		var ivs []interval
		for _, op := range so.ops {
			if match(op) {
				ivs = append(ivs, interval{op.start, op.end})
			}
		}
		ms = append(ms, nsToMs(unionNs(ivs)))
	}
	return median(ms)
}
