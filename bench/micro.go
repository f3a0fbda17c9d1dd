package main

import (
	"fmt"
	"io"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// The micro measurements call lower-layer public functions directly on the
// workload's own payloads, against scratch in-memory roots: they say what a
// layer can do alone, where the spans say what it did inside a save.

const microMinTime = 25 * time.Millisecond

// throughput calls fn until microMinTime has passed (at least three times)
// and returns MB/s for bytes moved per call.
func throughput(bytes int64, fn func()) float64 {
	fn() // warm caches and pools
	var calls int
	t0 := time.Now()
	for calls < 3 || time.Since(t0) < microMinTime {
		fn()
		calls++
	}
	return ratio(float64(bytes)*float64(calls)/mb, time.Since(t0).Seconds())
}

// latencyMs returns the median wall time of five calls.
func latencyMs(fn func()) float64 {
	var s []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		s = append(s, nsToMs(int64(time.Since(t0))))
	}
	return median(s)
}

// microZero times optimizer sharding and gathering over the whole state.
func microZero(st *trainState, world int, out map[string]float64) error {
	bytes := 12 * st.cfg.ParamCount()
	byRank, err := zero.ShardAll(st.o.States, world)
	if err != nil {
		return err
	}
	numels := make([]int64, len(st.o.Layout.Groups))
	for i, g := range st.o.Layout.Groups {
		numels[i] = g.Numel
	}
	if _, err := zero.GatherAll(byRank, numels); err != nil {
		return err
	}
	out["zero.shard_mb_per_s"] = throughput(bytes, func() { _, _ = zero.ShardAll(st.o.States, world) })
	out["zero.gather_mb_per_s"] = throughput(bytes, func() { _, _ = zero.GatherAll(byRank, numels) })
	return nil
}

// generations returns one optimizer payload of the layer before and after a
// training step: the pair of consecutive blob generations a dedup save of a
// changed layer sees.
func generations(st *trainState, layer modelcfg.LayerRef) (before, after []byte, err error) {
	gi := -1
	for i, g := range st.o.Layout.Groups {
		if g.Layer == layer && !g.NoDecay {
			gi = i
		}
	}
	if gi < 0 {
		return nil, nil, fmt.Errorf("layer %s has no weight-decay group", layer)
	}
	before = append([]byte(nil), f32Bytes(st.o.States[gi].Master)...)
	if err := st.step([]modelcfg.LayerRef{layer}); err != nil {
		return nil, nil, err
	}
	return before, f32Bytes(st.o.States[gi].Master), nil
}

// microCAS times hashing and raw blob puts and gets.
func microCAS(payload []byte, out map[string]float64) {
	n := int64(len(payload))
	digest := storage.DigestBytes(payload)
	out["storage.hash_mb_per_s"] = throughput(n, func() { storage.DigestBytes(payload) })
	write := func(w io.Writer) (int64, error) {
		k, err := w.Write(payload)
		return int64(k), err
	}
	out["storage.cas_put_mb_per_s"] = throughput(n, func() {
		store := storage.NewBlobStore(storage.NewMem(), "objects")
		_, _ = store.PutStreamOpts(digest, storage.BlobPutOptions{}, write)
	})
	store := storage.NewBlobStore(storage.NewMem(), "objects")
	if _, err := store.PutStreamOpts(digest, storage.BlobPutOptions{}, write); err != nil {
		return
	}
	out["storage.cas_get_mb_per_s"] = throughput(n, func() { drainBlob(store, digest) })
}

func drainBlob(store *storage.BlobStore, digest string) {
	r, err := store.Open(digest)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, r)
	r.Close()
}

// microCodec times the plane and xor coders and the tensor kernels under
// them on two consecutive generations of one payload, and reads a blob at
// the bottom of a chain as deep as the re-base bound allows.
func microCodec(before, after []byte, out map[string]float64) error {
	const width = 4
	n := int64(len(after))
	delta := make([]byte, len(after))
	tensor.XORBytes(delta, after, before)
	parent := storage.DigestBytes(before)

	plane, ok := storage.EncodeContainer(after, storage.CodecPlane, width, "", nil)
	out["storage.plane_ratio"] = 1
	if ok {
		out["storage.plane_ratio"] = ratio(float64(n), float64(len(plane)))
		out["storage.plane_decode_mb_per_s"] = throughput(n, func() {
			_, _, _ = storage.DecodeContainer(plane, storage.DecodeOpts{})
		})
	}
	out["storage.plane_encode_mb_per_s"] = throughput(n, func() {
		storage.EncodeContainer(after, storage.CodecPlane, width, "", nil)
	})
	xor, ok := storage.EncodeContainer(delta, storage.CodecXORParent, width, parent, nil)
	out["storage.xor_ratio"] = 1
	if ok {
		out["storage.xor_ratio"] = ratio(float64(n), float64(len(xor)))
		out["storage.xor_decode_mb_per_s"] = throughput(n, func() {
			_, _, _ = storage.DecodeContainer(xor, storage.DecodeOpts{})
		})
	}
	out["storage.xor_encode_mb_per_s"] = throughput(n, func() {
		storage.EncodeContainer(delta, storage.CodecXORParent, width, parent, nil)
	})

	scratch := make([]byte, len(after))
	out["tensor.planes_split_mb_per_s"] = throughput(n, func() { tensor.SplitPlanes(scratch, delta, width) })
	out["tensor.xor_mb_per_s"] = throughput(n, func() { tensor.XORBytes(scratch, after, before) })
	tensor.SplitPlanes(scratch, delta, width)
	rle := make([]byte, 0, 2*len(after))
	out["tensor.rle_mb_per_s"] = throughput(n, func() { tensor.AppendRLE(rle[:0], scratch) })

	ms, err := xorChainGet(before, delta)
	if err != nil {
		return err
	}
	out["storage.xor_chain_get_ms"] = ms
	return nil
}

// xorChainGet stores a base blob and DefaultCodecRebase successive
// generations, each xor-coded against the one before, then times reading
// the newest: the worst chain a restore can meet.
func xorChainGet(base, delta []byte) (float64, error) {
	store := storage.NewBlobStore(storage.NewMem(), "objects")
	put := func(payload []byte, parent string) (string, error) {
		digest := storage.DigestBytes(payload)
		opts := storage.BlobPutOptions{Codec: storage.CodecPlane, Width: 4}
		if parent != "" {
			opts = storage.BlobPutOptions{Codec: storage.CodecXORParent, Width: 4, Parent: parent}
		}
		_, err := store.PutStreamOpts(digest, opts, func(w io.Writer) (int64, error) {
			k, err := w.Write(payload)
			return int64(k), err
		})
		return digest, err
	}
	cur := append([]byte(nil), base...)
	digest, err := put(cur, "")
	if err != nil {
		return 0, err
	}
	for d := 1; d <= ckpt.DefaultCodecRebase; d++ {
		// Rotate the delta by whole elements so every generation differs
		// from its parent at the same density as a real training step.
		shift := (4 * d) % len(delta)
		for i := range cur {
			cur[i] ^= delta[(i+shift)%len(delta)]
		}
		if digest, err = put(cur, digest); err != nil {
			return 0, err
		}
	}
	return latencyMs(func() { drainBlob(store, digest) }), nil
}

// microRefIndex times one journal append and one listing at the size the
// workload's checkpoints have: entries digests per record, records kept.
func microRefIndex(entries, records int, out map[string]float64) error {
	digests := make([]string, entries)
	for i := range digests {
		digests[i] = storage.DigestBytes([]byte(fmt.Sprintf("bench-digest-%d", i)))
	}
	ix := storage.NewRefIndex(storage.NewMem(), "objects")
	gen := int64(0)
	appendOne := func() error {
		gen++
		return ix.Append(&storage.RefRecord{Version: 1, Key: ckpt.DirName(int(gen)), Step: int(gen),
			Generation: gen, Digests: digests})
	}
	for i := 0; i < records; i++ {
		if err := appendOne(); err != nil {
			return err
		}
	}
	out["storage.refindex_entries_ms"] = latencyMs(func() { _, _, _, _ = ix.Entries() })
	out["storage.refindex_append_ms"] = latencyMs(func() { _ = appendOne() })
	return nil
}
