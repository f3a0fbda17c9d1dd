// Command llmtailor is the checkpoint-tailoring CLI: it plans and executes
// YAML merge recipes over checkpoint directories, inspects checkpoints, and
// auto-generates recipes from partial-checkpoint manifests.
//
// Usage:
//
//	llmtailor merge   -root DIR -recipe FILE [-workers N] [-interleaved]
//	llmtailor plan    -root DIR -recipe FILE
//	llmtailor inspect -root DIR -ckpt CHECKPOINT_DIR
//	llmtailor doctor  -root DIR [-run RUN_ROOT] [-fix]
//	llmtailor hub     init|attach|detach|stat|gc -root DIR -hub HUB_ROOT [...]
//	llmtailor gen-recipe -root DIR -run RUN_ROOT -model NAME -fail-step N -output DIR [-write FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"llmtailor"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/tailor"
)

// exitProblems is the doctor exit code when uncommitted (torn / orphaned)
// checkpoint directories are found and not fixed; CI keys off it.
const exitProblems = 2

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "merge":
		err = runMerge(os.Args[2:])
	case "plan":
		err = runPlan(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "gen-recipe":
		err = runGenRecipe(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "doctor":
		problems, derr := runDoctor(os.Args[2:], os.Stdout)
		if derr != nil {
			fmt.Fprintln(os.Stderr, "llmtailor:", derr)
			os.Exit(1)
		}
		if problems > 0 {
			os.Exit(exitProblems)
		}
		return
	case "reshard":
		err = runReshard(os.Args[2:], os.Stdout)
	case "gc":
		err = runGC(os.Args[2:], os.Stdout)
	case "retain":
		err = runRetain(os.Args[2:], os.Stdout)
	case "hub":
		err = runHub(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "llmtailor: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "llmtailor:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `llmtailor — layer-wise checkpoint tailoring

commands:
  merge       execute a YAML merge recipe; tensors whose stored dtype
              already matches the output (and, for single-source recipes,
              whole optimizer shard files) are raw-copied without decoding
              — the reported "raw-copied" stats count them
  plan        validate a recipe and print the merge plan (dry run)
  inspect     print a checkpoint's anatomy
  verify      re-read a checkpoint end to end and check consistency
  doctor      classify checkpoints (committed / torn / orphaned staging /
              quarantined) and the content-addressed blob store, and
              optionally repair the run root; -adopt seals intact
              pre-commit-protocol checkpoints in place (quarantining
              unreadable ones) instead of leaving them for -fix to delete;
              exits 0 when healthy, 2 when problems were left in place
  gc          sweep the run root's objects/ blob store. The default mode
              is incremental: it retires journal records provably
              superseded by a newer save of the same checkpoint and
              examines only those generations' blobs —
              O(retired), not O(run length). -full keeps the whole-history
              mark-and-sweep as a verification/repair pass that re-derives
              references from every manifest and validates the ref index
              against them. Referenced blobs are never collected either
              way; -dry-run reports only
  retain      keep the newest -keep-last N committed checkpoints, retire
              the rest (directories + ref-index generations) and sweep the
              blobs whose youngest reference died with them; -dry-run
              reports only
  hub         manage a checkpoint hub: one shared content-addressed blob
              store serving many run roots. init creates it (-shards N
              selects the sharded layout); attach redirects a run root's
              objects/ store into the hub (cross-run dedup, journals
              namespaced per run); detach unregisters a run (-force
              abandons its blob claims); stat lists attached runs and the
              store footprint; gc sweeps the shared store keeping every
              digest referenced by ANY attached run (union-pin rule)
  gen-recipe  build a recipe from partial-checkpoint manifests
  reshard     repartition a committed checkpoint saved at world-size N
              into a new committed checkpoint at world-size M —
              byte-identical to a native save at M. Aligned extents move
              through a zero-decode splice (CRCs carried forward);
              -dedup stores the output content-addressed against the run
              root's objects/ store

examples:
  llmtailor doctor -root /data -run sft-run        # report only
  llmtailor doctor -root /data -run sft-run -fix   # remove torn/orphaned
                                                   # dirs, re-aim 'latest'
  llmtailor doctor -root /data -run old-run -adopt # migrate pre-protocol
                                                   # checkpoints
  llmtailor merge -root /data -recipe r.yaml -dedup # dedup the output
  llmtailor gc -root /data -run sft-run            # incremental reclaim
  llmtailor gc -root /data -run sft-run -full      # verify + full sweep
  llmtailor retain -root /data -run sft-run -keep-last 5
  llmtailor hub init -root /data -hub shared -shards 16
  llmtailor hub attach -root /data -hub shared -run sft-run
  llmtailor hub gc -root /data -hub shared
  llmtailor reshard -root /data -src sft-run/checkpoint-300 \
                    -out sft-run/checkpoint-300-w4 -world 4`)
}

func openRoot(root string) (llmtailor.Backend, error) {
	if root == "" {
		return nil, fmt.Errorf("missing -root")
	}
	return llmtailor.OpenDir(root)
}

func loadRecipe(path string) (*llmtailor.Recipe, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -recipe")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return llmtailor.ParseRecipe(data)
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory containing the checkpoints")
	recipePath := fs.String("recipe", "", "YAML recipe file")
	workers := fs.Int("workers", 4, "parallel shard-loading / tensor-reading workers")
	interleaved := fs.Bool("interleaved", false, "use the pathological per-layer load order (Table 7's parity mode)")
	maxInFlight := fs.Int64("max-inflight", 0, "bound on in-flight tensor bytes in the weights pipeline (0 = unbounded)")
	chunkBytes := fs.Int("chunk-bytes", 0, "streaming I/O chunk size in bytes (0 = default)")
	dedup := fs.Bool("dedup", false, "store the merged checkpoint content-addressed: payloads land in the run root's objects/ store, deduplicated against existing blobs")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	rec, err := loadRecipe(*recipePath)
	if err != nil {
		return err
	}
	opts := llmtailor.MergeOptions{
		Workers:     *workers,
		MaxInFlight: *maxInFlight,
		ChunkBytes:  *chunkBytes,
		DedupOutput: *dedup,
	}
	if *interleaved {
		opts.LoadOrder = tailor.Interleaved
	}
	stats, err := llmtailor.Merge(b, rec, opts)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d checkpoints -> %s\n", stats.CheckpointsUsed, rec.Output)
	fmt.Printf("  weight tensors read: %d (raw-copied without decode: %d)\n", stats.TensorsRead, stats.TensorsRawCopied)
	fmt.Printf("  optimizer shard file loads: %d\n", stats.ShardFileLoads)
	fmt.Printf("  bytes read: %d  written: %d  raw-copied: %d\n", stats.BytesRead, stats.BytesWritten, stats.BytesRawCopied)
	fmt.Printf("  peak in-flight tensor bytes: %d\n", stats.PeakInFlightBytes)
	if *dedup {
		fmt.Printf("  dedup: %d blobs written (%d bytes), %d reused (%d bytes deduplicated)\n",
			stats.BlobsPut, stats.BlobBytesWritten, stats.BlobsReused, stats.BytesDeduped)
	}
	fmt.Printf("  wall time: %v\n", stats.WallTime)
	return nil
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	recipePath := fs.String("recipe", "", "YAML recipe file")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	rec, err := loadRecipe(*recipePath)
	if err != nil {
		return err
	}
	plan, err := llmtailor.NewPlan(b, rec)
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	dir := fs.String("ckpt", "", "checkpoint directory (relative to root)")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -ckpt")
	}
	c, err := llmtailor.OpenCheckpoint(b, *dir)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %s\n", *dir)
	fmt.Printf("  model: %s (%d transformer layers, %d mergeable)\n",
		c.Config.Name, c.Config.NumLayers, c.Config.TotalMergeableLayers())
	fmt.Printf("  step: %d  task: %s  lr: %g  loss: %.4f\n",
		c.State.Step, c.State.Task, c.State.LR, c.State.Loss)
	fmt.Printf("  world size: %d  layout: %s\n", c.WorldSize(), c.State.Layout)
	fmt.Printf("  strategy: %s  complete: %v  layers: %d\n",
		c.Manifest.Strategy, c.Manifest.Complete, len(c.Manifest.Layers))
	fmt.Printf("  weight tensors: %d\n", len(c.Weights().Names()))
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	dir := fs.String("ckpt", "", "checkpoint directory (relative to root)")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -ckpt")
	}
	rep, err := tailor.Verify(b, *dir)
	if err != nil {
		return err
	}
	fmt.Print(rep.Describe())
	if !rep.OK() {
		return fmt.Errorf("%d problems found", len(rep.Problems))
	}
	return nil
}

// runDoctor scans (and with -fix repairs, -adopt migrates) a run root. It
// returns the number of problem directories left in place — the caller
// maps a non-zero count to exit code 2 so scripts and CI can gate on
// health.
func runDoctor(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	run := fs.String("run", "", "run root under the storage root (default: the root itself)")
	fix := fs.Bool("fix", false, "remove torn/orphaned directories and re-aim the latest pointer")
	adopt := fs.Bool("adopt", false, "seal intact pre-commit-protocol checkpoints (full read + CRC pass) with a COMMITTED marker; quarantine unreadable ones instead of deleting")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return 0, err
	}
	rh := llmtailor.NewStore(b).Run(*run)
	if *adopt {
		rep, err := rh.Adopt()
		if err != nil {
			return 0, err
		}
		for _, d := range rep.Adopted {
			fmt.Fprintf(out, "adopted %s (readable; COMMITTED marker sealed in place)\n", d)
		}
		for i, q := range rep.Quarantined {
			fmt.Fprintf(out, "quarantined %s — %s\n", q, rep.Reasons[i])
		}
		for _, d := range rep.StillTorn {
			fmt.Fprintf(out, "left torn %s (carries a failing marker or is empty; -fix owns it)\n", d)
		}
	}
	scan, err := rh.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
	if err != nil {
		return 0, err
	}
	if hubRoot, hubID, err := rh.HubAttachment(); err != nil {
		return 0, err
	} else if hubRoot != "" {
		fmt.Fprintf(out, "hub: attached to %s as %q\n", hubRoot, hubID)
	}
	problems := 0
	for _, st := range scan.Dirs {
		switch st.State {
		case llmtailor.StateCommitted:
			fmt.Fprintf(out, "  %-12s %s (step %d)\n", st.State, st.Path, st.Step)
		case llmtailor.StateQuarantined:
			// Deliberately preserved; reported but not counted as a
			// problem -fix would act on.
			fmt.Fprintf(out, "  %-12s %s — %s\n", st.State, st.Path, st.Detail)
		default:
			problems++
			fmt.Fprintf(out, "  %-12s %s — %s\n", st.State, st.Path, st.Detail)
		}
	}
	if len(scan.Dirs) == 0 {
		fmt.Fprintf(out, "no checkpoint directories under %q\n", *run)
	}
	// Blob store health: staging residue counts as a problem (a crashed
	// blob put left it; -fix removes it). Unreferenced blobs are garbage
	// worth reporting but not a health failure — only an explicit gc
	// sweeps published blobs — and stray entries (external mutilation
	// under objects/) are flagged but never touched automatically.
	var referenced, unreferenced, staging, stray int
	for _, bl := range scan.Blobs {
		switch bl.State {
		case llmtailor.BlobReferenced:
			referenced++
		case llmtailor.BlobUnreferenced:
			unreferenced++
		case llmtailor.BlobStaging:
			staging++
			problems++
			fmt.Fprintf(out, "  %-12s %s\n", bl.State, bl.Path)
		case llmtailor.BlobTrashed:
			// A sweep crashed between trash and purge; -fix restores the
			// referenced ones and drops the rest.
			problems++
			fmt.Fprintf(out, "  %-12s %s (refs %d)\n", bl.State, bl.Path, bl.Refs)
		default:
			stray++
			fmt.Fprintf(out, "  %-12s %s\n", bl.State, bl.Path)
		}
	}
	if len(scan.Blobs) > 0 {
		fmt.Fprintf(out, "blob store: %d referenced, %d unreferenced, %d staging, %d stray\n",
			referenced, unreferenced, staging, stray)
		if n, err := rh.Shards(); err != nil {
			// A store that cannot open (corrupt shards.json, broken hub
			// attachment) is a problem, not a flat layout.
			problems++
			fmt.Fprintf(out, "  %-12s %v\n", "store", err)
		} else if n > 0 {
			fmt.Fprintf(out, "blob store layout: %d digest-prefix shards\n", n)
		}
		if unreferenced > 0 {
			fmt.Fprintln(out, "run `llmtailor gc` to reclaim unreferenced blobs")
		}
	}
	// Codec health: a dedup checkpoint whose manifests pin an xor parent
	// the store no longer holds cannot restore those entries — a problem.
	// Deep chains are telemetry (re-base bounds them at save time).
	var deepest int
	deepestAt := ""
	for _, ch := range scan.Codecs {
		if ch.Stats.DeepestChain > deepest {
			deepest = ch.Stats.DeepestChain
			deepestAt = ch.Dir + " " + ch.Stats.DeepestSlot
		}
		for _, mp := range ch.MissingParents {
			problems++
			fmt.Fprintf(out, "  %-12s %s — xor parent missing: %s\n", "codec", ch.Dir, mp)
		}
	}
	if deepest > 0 {
		fmt.Fprintf(out, "blob codec: deepest xor-parent chain %d (%s)\n", deepest, deepestAt)
	}
	// Ref-index health: records that disagree with the manifests (missing,
	// divergent, corrupt), stale records with no checkpoint behind them,
	// and append residue are problems -fix reconciles; superseded records
	// are ordinary reclaimable garbage a generational gc retires.
	var refOK, refSuperseded int
	for _, rs := range scan.Refs {
		switch rs.State {
		case llmtailor.RefOK:
			refOK++
		case llmtailor.RefSuperseded:
			refSuperseded++
		default:
			problems++
			fmt.Fprintf(out, "  %-12s %s — %s\n", rs.State, rs.Path, rs.Detail)
		}
	}
	if len(scan.Refs) > 0 {
		fmt.Fprintf(out, "ref index: %d ok, %d superseded, %d problem(s)\n",
			refOK, refSuperseded, len(scan.Refs)-refOK-refSuperseded)
		if refSuperseded > 0 {
			fmt.Fprintln(out, "run `llmtailor gc` to retire superseded generations")
		}
	}
	if problems == 0 {
		fmt.Fprintln(out, "healthy: every checkpoint is committed")
		return 0, nil
	}
	if !*fix {
		fmt.Fprintf(out, "%d problem(s); run with -fix to repair\n", problems)
		return problems, nil
	}
	rep, err := rh.Repair()
	if err != nil {
		return problems, err
	}
	for _, p := range rep.Published {
		fmt.Fprintf(out, "published %s (completed a crashed rename)\n", p)
	}
	for _, c := range rep.Converted {
		fmt.Fprintf(out, "converted %s (removed the payload files its marker does not list)\n", c)
	}
	for _, r := range rep.Removed {
		fmt.Fprintf(out, "removed %s\n", r)
	}
	for _, p := range rep.BlobStagingRemoved {
		fmt.Fprintf(out, "removed blob staging %s\n", p)
	}
	for _, r := range rep.RefRecordsRemoved {
		fmt.Fprintf(out, "removed stale ref record %s\n", r)
	}
	for _, r := range rep.RefRecordsWritten {
		fmt.Fprintf(out, "rebuilt ref record %s\n", r)
	}
	for _, r := range rep.RefStagingRemoved {
		fmt.Fprintf(out, "removed ref staging %s\n", r)
	}
	for _, d := range rep.TrashRestored {
		fmt.Fprintf(out, "restored trashed blob %s\n", d)
	}
	for _, d := range rep.TrashPurged {
		fmt.Fprintf(out, "purged trashed blob %s\n", d)
	}
	if rep.LatestFixed {
		if rep.Latest == "" {
			fmt.Fprintln(out, "removed dangling latest pointer (no committed checkpoint remains)")
		} else {
			fmt.Fprintf(out, "latest pointer -> %s\n", rep.Latest)
		}
	}
	fmt.Fprintf(out, "repaired: %d directories removed, %d published, %d blob staging entries cleaned\n",
		len(rep.Removed), len(rep.Published), len(rep.BlobStagingRemoved))
	return 0, nil
}

// runGC sweeps (or with -dry-run reports) the run root's blob store, in
// the incremental generational mode (the default) or -full verification mode.
func runGC(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	run := fs.String("run", "", "run root under the storage root (default: the root itself)")
	dryRun := fs.Bool("dry-run", false, "report what a sweep would remove without removing anything")
	full := fs.Bool("full", false, "whole-history mark-and-sweep: re-derive references from every manifest, sweep the whole store, validate and repair the ref index")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	rep, err := llmtailor.NewStore(b).Run(*run).GC(llmtailor.GCOptions{Full: *full, DryRun: *dryRun})
	if err != nil {
		return err
	}
	remove, retire, repair := "removed", "retired", "repaired"
	if *dryRun {
		remove, retire, repair = "would remove", "would retire", "would repair"
	}
	for _, d := range rep.RemovedBlobs {
		fmt.Fprintf(out, "  %s blob %s\n", remove, d)
	}
	for _, p := range rep.RemovedStaging {
		fmt.Fprintf(out, "  %s staging %s\n", remove, p)
	}
	for _, r := range rep.RecordsRetired {
		fmt.Fprintf(out, "  %s record %s\n", retire, r)
	}
	for _, r := range rep.IndexRepaired {
		fmt.Fprintf(out, "  %s record %s\n", repair, r)
	}
	switch {
	case *full && *dryRun:
		fmt.Fprintf(out, "dry run (full): %d records, %d retirable, %d blobs examined, %d kept, %d removable (%d bytes reclaimable), %d staging entries\n",
			rep.IndexRecords, len(rep.RecordsRetired), rep.Examined, rep.Kept,
			len(rep.RemovedBlobs), rep.BytesFreed, len(rep.RemovedStaging))
	case *full:
		fmt.Fprintf(out, "gc: %d referenced digests, %d blobs kept, %d removed (%d bytes freed), %d staging entries cleaned\n",
			rep.Referenced, rep.Kept, len(rep.RemovedBlobs), rep.BytesFreed, len(rep.RemovedStaging))
	case *dryRun:
		fmt.Fprintf(out, "dry run: %d generations retirable, %d candidate blobs examined, %d removable (%d bytes reclaimable)\n",
			len(rep.RecordsRetired), rep.Examined, len(rep.RemovedBlobs), rep.BytesFreed)
		return nil
	default:
		fmt.Fprintf(out, "gc (generational): %d records, %d retired, %d blobs examined, %d removed (%d bytes freed), %d staging entries cleaned\n",
			rep.IndexRecords, len(rep.RecordsRetired), rep.Examined, len(rep.RemovedBlobs), rep.BytesFreed, len(rep.RemovedStaging))
	}
	if rep.IndexStale > 0 {
		fmt.Fprintf(out, "%d stale/unmatched record(s) left pinned; run doctor -fix (quiescent) to reconcile\n", rep.IndexStale)
	}
	return nil
}

// runRetain applies a keep-last retention policy: victims' directories and
// ref-index generations are retired, and the blobs whose youngest
// reference died with them are swept generationally.
func runRetain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("retain", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	run := fs.String("run", "", "run root under the storage root (default: the root itself)")
	keepLast := fs.Int("keep-last", 0, "number of newest committed checkpoints to keep (required, >= 1)")
	dryRun := fs.Bool("dry-run", false, "report what retention would remove without removing anything")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	if *keepLast < 1 {
		return fmt.Errorf("retain: missing or invalid -keep-last (want >= 1)")
	}
	rep, err := llmtailor.NewStore(b).Run(*run).Retain(llmtailor.RetainOptions{KeepLast: *keepLast, DryRun: *dryRun})
	if err != nil {
		return err
	}
	verb := "retired"
	if *dryRun {
		verb = "would retire"
	}
	for _, d := range rep.Removed {
		fmt.Fprintf(out, "  %s %s\n", verb, d)
	}
	for _, d := range rep.Holders {
		fmt.Fprintf(out, "  kept %s: the newest holder of a layer\n", d)
	}
	for _, d := range rep.RemovedBlobs {
		fmt.Fprintf(out, "  swept blob %s\n", d)
	}
	mode := "retain"
	if *dryRun {
		mode = "retain (dry run)"
	}
	fmt.Fprintf(out, "%s: %d kept, %d checkpoints retired (%d records), %d blobs examined, %d swept (%d bytes freed)\n",
		mode, len(rep.Retained), len(rep.Removed), len(rep.RecordsRetired), rep.Examined, len(rep.RemovedBlobs), rep.BytesFreed)
	return nil
}

func runGenRecipe(args []string) error {
	fs := flag.NewFlagSet("gen-recipe", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	run := fs.String("run", "", "run root containing checkpoint-N directories")
	modelName := fs.String("model", "", "model preset name (e.g. llama3.1-8b)")
	sim := fs.Bool("sim", true, "use the scaled simulation geometry")
	failStep := fs.Int("fail-step", 0, "use only checkpoints at or before this step (0 = all)")
	output := fs.String("output", "", "output checkpoint directory for the recipe")
	write := fs.String("write", "", "write the recipe YAML to this file (default: stdout)")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	cfg, err := modelcfg.ByName(*modelName)
	if err != nil {
		return err
	}
	if *sim {
		cfg = cfg.DefaultSimScale()
	}
	if *output == "" {
		return fmt.Errorf("missing -output")
	}
	rec, err := llmtailor.RecipeFromManifests(b, *run, *failStep, cfg, *output)
	if err != nil {
		return err
	}
	data, err := rec.Marshal()
	if err != nil {
		return err
	}
	if *write == "" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(*write, data, 0o644)
}

func runReshard(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	root := fs.String("root", "", "storage root directory")
	src := fs.String("src", "", "source checkpoint directory (committed)")
	dst := fs.String("out", "", "output checkpoint directory")
	world := fs.Int("world", 0, "target world size M")
	workers := fs.Int("workers", 4, "output containers written side by side (and weights read ahead)")
	maxInFlight := fs.Int64("max-inflight", 0, "bound on weight payload bytes read ahead (0 = unbounded)")
	chunkBytes := fs.Int("chunk-bytes", 0, "streaming I/O chunk size in bytes (0 = default)")
	dedup := fs.Bool("dedup", false, "store the resharded checkpoint content-addressed in the run root's objects/ store")
	noLatest := fs.Bool("no-latest", false, "do not move the run root's latest pointer to the output")
	fs.Parse(args)

	b, err := openRoot(*root)
	if err != nil {
		return err
	}
	if *src == "" || *dst == "" {
		return fmt.Errorf("missing -src or -out")
	}
	stats, err := llmtailor.NewStore(b).Reshard(*src, *dst, *world, llmtailor.ReshardOptions{
		Workers:     *workers,
		MaxInFlight: *maxInFlight,
		ChunkBytes:  *chunkBytes,
		Dedup:       *dedup,
		NoLatest:    *noLatest,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "resharded %s (world %d) -> %s (world %d)\n", *src, stats.WorldFrom, *dst, stats.WorldTo)
	fmt.Fprintf(out, "  groups: %d  shards carried: %d  spliced: %d  zero-filled: %d\n",
		stats.Groups, stats.ShardsCarried, stats.ShardsSpliced, stats.ShardsZeroed)
	fmt.Fprintf(out, "  bytes raw-copied: %d  zero-filled: %d  weights: %d\n",
		stats.BytesRawCopied, stats.BytesZeroFilled, stats.WeightBytes)
	fmt.Fprintf(out, "  peak in-flight bytes: %d\n", stats.PeakInFlightBytes)
	if *dedup {
		fmt.Fprintf(out, "  dedup: %d blobs written (%d bytes), %d reused (%d bytes deduplicated)\n",
			stats.BlobsPut, stats.BlobBytesWritten, stats.BlobsReused, stats.BytesDeduped)
	}
	fmt.Fprintf(out, "  wall time: %v\n", stats.WallTime)
	return nil
}
