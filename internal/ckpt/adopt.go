// Adoption of pre-commit-protocol checkpoints.
//
// Checkpoints written before the commit protocol landed carry no COMMITTED
// marker, so Scan classifies them as torn and Repair would delete them —
// even when every byte is intact. AdoptAll closes that migration gap: it
// verifies a marker-less checkpoint is fully readable (config parses,
// every weight tensor and optimizer shard passes its CRC) and seals a
// COMMITTED marker in place, after which the directory is a first-class
// committed checkpoint. A candidate that fails the readability pass is
// quarantined — renamed aside under the .quarantined suffix — instead of
// deleted, preserving whatever can still be salvaged by hand. Directories
// that already carry a (failing) marker are genuinely torn post-protocol
// states and are left for Repair.

package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"llmtailor/internal/storage"
)

// sealMarker computes every file's integrity record and publishes the
// COMMITTED marker atomically (storage.PublishFile): a crash leaves no marker
// (rerun adopt) or a complete one, and the COMMITTED.tmp staging name keeps its
// residue out of a retry's file walk. The readability pass has succeeded.
func sealMarker(e *entry) error {
	b, dir := e.c.b, e.Path
	marker := CommitMarker{Version: formatVersion, Step: e.step(), Files: map[string]FileSum{}}
	files, err := walkFiles(b, dir, "")
	if err != nil {
		return fmt.Errorf("ckpt: adopt %s: %w", dir, err)
	}
	for _, rel := range files {
		if rel == CommitMarkerName || strings.HasSuffix(rel, stagingSuffix) {
			continue
		}
		sum, err := fileSum(b, dir+"/"+rel)
		if err != nil {
			return fmt.Errorf("ckpt: adopt %s: %w", dir, err)
		}
		marker.Files[rel] = sum
	}
	if len(marker.Files) == 0 {
		return fmt.Errorf("ckpt: adopt %s: empty directory", dir)
	}
	_, err = publishJSON(b, dir+"/"+CommitMarkerName, &marker)
	return err
}

// verifyReadable runs the full read pass adoption requires: the checkpoint
// opens (config, state, manifest parse and validate), every weight payload
// passes its CRC, and every rank's optimizer shard passes the checks Restore
// holds it to (layout, padding, step, CRCs) — blob-backed payloads included
// for dedup directories — and every weight is its master's rounding
// (ReadState).
func verifyReadable(b storage.Backend, dir string) error {
	c, err := Open(b, dir)
	if err != nil {
		return err
	}
	if _, err := c.ReadState(nil); err != nil {
		return fmt.Errorf("payloads unreadable: %w", err)
	}
	return nil
}

// walkFiles returns every file under dir (recursively) as dir-relative
// paths, prefix-joined for recursion.
func walkFiles(b storage.Backend, dir, prefix string) ([]string, error) {
	entries, err := b.List(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e, "/") {
			sub := strings.TrimSuffix(e, "/")
			nested, err := walkFiles(b, dir+"/"+sub, prefix+sub+"/")
			if err != nil {
				return nil, err
			}
			out = append(out, nested...)
			continue
		}
		out = append(out, prefix+e)
	}
	return out, nil
}

// fileSum computes one file's commit-marker integrity record.
func fileSum(b storage.Backend, path string) (FileSum, error) {
	r, err := b.Open(path)
	if err != nil {
		return FileSum{}, err
	}
	crc := crc32.NewIEEE()
	n, err := io.Copy(crc, r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return FileSum{}, fmt.Errorf("sum %s: %w", path, err)
	}
	return FileSum{Size: n, CRC32: crc.Sum32()}, nil
}

// AdoptReport records what AdoptAll did to a run root.
type AdoptReport struct {
	// Adopted lists marker-less checkpoints that passed the readability
	// pass and now carry a verifying COMMITTED marker.
	Adopted []string
	// Quarantined maps set-aside directories to their new (.quarantined)
	// paths, parallel slices with Reasons.
	Quarantined []string
	// Reasons holds the readability failure for each quarantined dir.
	Reasons []string
	// StillTorn lists directories left untouched because they carry a
	// failing marker (post-protocol crash damage Repair owns) or are
	// empty.
	StillTorn []string
}

// AdoptAll runs the adopt-or-quarantine migration over a run root: every
// torn, marker-less, non-empty checkpoint directory is either adopted
// (readable — sealed in place) or quarantined (unreadable — renamed aside,
// never deleted). Torn directories with a failing marker and empty
// directories are reported untouched; orphaned staging directories are
// ignored entirely (Repair owns them).
func AdoptAll(b storage.Backend, runRoot string) (*AdoptReport, error) {
	c, err := openPresentCatalog(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: scan %q: %w", runRoot, err)
	}
	statuses, err := c.scan()
	if err != nil {
		return nil, err
	}
	rep := &AdoptReport{}
	for _, st := range statuses {
		// Each torn entry is judged by what the scan read of it and then
		// sealed or set aside; no entry is read again after a directory
		// changed, so the one catalog serves the whole pass.
		if st.State != StateTorn {
			continue
		}
		e := c.byPath(st.Path)
		if _, err := e.marker(); !storage.IsNotExist(err) || e.empty() {
			rep.StillTorn = append(rep.StillTorn, st.Path)
			continue
		}
		// Only a failed readability pass quarantines. A seal failure
		// (marker write or rename — disk full, transient I/O) aborts with
		// the error instead: the checkpoint is intact and a rerun adopts
		// it, so setting it aside would misclassify good data.
		if rerr := verifyReadable(b, st.Path); rerr != nil {
			q, err := quarantinePath(b, st.Path)
			if err != nil {
				return rep, err
			}
			if qerr := b.Rename(st.Path, q); qerr != nil {
				return rep, fmt.Errorf("ckpt: quarantine %s: %w", st.Path, qerr)
			}
			rep.Quarantined = append(rep.Quarantined, q)
			rep.Reasons = append(rep.Reasons, rerr.Error())
			continue
		}
		if err := sealMarker(e); err != nil {
			return rep, fmt.Errorf("ckpt: adopt %s: %w", st.Path, err)
		}
		rep.Adopted = append(rep.Adopted, st.Path)
	}
	return rep, nil
}

// quarantinePath picks a free .quarantined name: a directory may be
// quarantined, recreated by a retrying trainer, torn and quarantined
// again, so collisions take a numeric suffix rather than aborting the
// migration.
func quarantinePath(b storage.Backend, dir string) (string, error) {
	q := dir + quarantineSuffix
	if !b.Exists(q) {
		return q, nil
	}
	// Keep the .quarantined suffix last so Scan still classifies the copy.
	for i := 2; i < 100; i++ {
		qi := fmt.Sprintf("%s.%d%s", dir, i, quarantineSuffix)
		if !b.Exists(qi) {
			return qi, nil
		}
	}
	return "", fmt.Errorf("ckpt: quarantine %s: too many existing quarantined copies", dir)
}
