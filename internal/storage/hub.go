// Checkpoint-hub attachment plumbing: one shared CAS serving many runs.
//
// A hub is a directory holding a `hub.json` marker, a `runs/` registry (one
// small JSON file per attached run — per-run files, so attach and detach
// never race a read-modify-write over a shared document) and one `objects/`
// blob store (flat or sharded, exactly as a run-local store would be). A
// run root attaches by dropping a `hubref.json` redirect into its own
// `objects/` directory; from then on OpenCAS and ResolveHub follow the
// redirect, so every existing save, GC, scan and reshard path resolves the
// shared store without knowing hubs exist. The run keeps its checkpoint
// directories and latest pointer; only blobs and its ref journal move — the
// journal lands namespaced under `<hub>/objects/refs/<run-id>/`, so each
// run's generation counter and record files stay private while the blobs
// dedup globally.
//
// Indirection is one level deep by construction: a hub's objects root must
// not itself carry a hubref.json, and OpenCAS rejects such a chain rather
// than following it — a cycle of redirects should be a loud config error,
// never a hang or a surprise store.
package storage

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

const (
	// HubConfigName marks a directory as a hub root.
	HubConfigName = "hub.json"
	// HubRefName is the redirect file inside an attached run's objects dir.
	HubRefName = "hubref.json"
	// HubRunsDirName holds the per-run registry files under a hub root.
	HubRunsDirName = "runs"
	// HubObjectsDirName is the shared store's directory under a hub root.
	HubObjectsDirName = "objects"
)

// HubConfig is the hub.json marker payload.
type HubConfig struct {
	Version int `json:"version"`
}

// HubRef is the hubref.json redirect inside an attached run's objects
// directory: where the shared store lives and which registry identity the
// run journals under.
type HubRef struct {
	Version int    `json:"version"`
	Hub     string `json:"hub"`
	Run     string `json:"run"`
}

// HubRun is one runs/<id>.json registry entry: the attached run's identity
// and its run root (checkpoint directories, latest pointer).
type HubRun struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Root    string `json:"root"`
}

// HubObjectsRoot returns a hub's shared store root.
func HubObjectsRoot(hubRoot string) string {
	hubRoot = strings.TrimSuffix(hubRoot, "/")
	if hubRoot == "" {
		return HubObjectsDirName
	}
	return hubRoot + "/" + HubObjectsDirName
}

// hubRunPath returns the registry file of one attached run.
func hubRunPath(hubRoot, id string) string {
	return strings.TrimSuffix(hubRoot, "/") + "/" + HubRunsDirName + "/" + id + ".json"
}

// ValidHubRunID reports whether an identity can name a run under a hub: it
// becomes both a registry file name and a refs/<id>/ namespace directory,
// so it is restricted to a conservative path-segment alphabet.
func ValidHubRunID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// WriteHubConfig marks root as a hub (idempotent).
func WriteHubConfig(b Backend, hubRoot string) error {
	data, err := json.Marshal(HubConfig{Version: 1})
	if err != nil {
		return err
	}
	return b.WriteFile(strings.TrimSuffix(hubRoot, "/")+"/"+HubConfigName, data)
}

// ReadHubConfig reads and validates a hub marker.
func ReadHubConfig(b Backend, hubRoot string) (*HubConfig, error) {
	p := strings.TrimSuffix(hubRoot, "/") + "/" + HubConfigName
	data, err := b.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", p, err)
	}
	var cfg HubConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("storage: parse %s: %w", p, err)
	}
	if cfg.Version != 1 {
		return nil, fmt.Errorf("storage: %s: unsupported hub version %d", p, cfg.Version)
	}
	return &cfg, nil
}

// ReadHubRef reads the redirect inside an objects root. An absent file
// returns (nil, nil) — the root is an ordinary local store. An unreadable
// or malformed file is an error: silently treating a corrupt attachment as
// "unattached" would point savers and sweeps at an empty local store while
// the run's blobs live at the hub.
func ReadHubRef(b Backend, objectsRoot string) (*HubRef, error) {
	p := strings.TrimSuffix(objectsRoot, "/") + "/" + HubRefName
	data, err := b.ReadFile(p)
	if err != nil {
		if IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: read %s: %w", p, err)
	}
	var ref HubRef
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("storage: parse %s: %w", p, err)
	}
	if ref.Version != 1 || !ValidHubRunID(ref.Run) {
		return nil, fmt.Errorf("storage: %s: invalid hub attachment %+v", p, ref)
	}
	return &ref, nil
}

// WriteHubRef publishes the redirect inside an objects root.
func WriteHubRef(b Backend, objectsRoot string, ref *HubRef) error {
	if !ValidHubRunID(ref.Run) {
		return fmt.Errorf("storage: invalid hub run id %q", ref.Run)
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	return b.WriteFile(strings.TrimSuffix(objectsRoot, "/")+"/"+HubRefName, data)
}

// RemoveHubRef deletes the redirect (detach). Removing an absent redirect
// is a no-op so detach converges under crash-and-retry.
func RemoveHubRef(b Backend, objectsRoot string) error {
	p := strings.TrimSuffix(objectsRoot, "/") + "/" + HubRefName
	if !b.Exists(p) {
		return nil
	}
	return b.Remove(p)
}

// WriteHubRun publishes one run's registry entry under the hub.
func WriteHubRun(b Backend, hubRoot string, run *HubRun) error {
	if !ValidHubRunID(run.ID) {
		return fmt.Errorf("storage: invalid hub run id %q", run.ID)
	}
	data, err := json.Marshal(run)
	if err != nil {
		return err
	}
	return b.WriteFile(hubRunPath(hubRoot, run.ID), data)
}

// ReadHubRun reads one run's registry entry ((nil, nil) when absent).
func ReadHubRun(b Backend, hubRoot, id string) (*HubRun, error) {
	p := hubRunPath(hubRoot, id)
	data, err := b.ReadFile(p)
	if err != nil {
		if IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: read %s: %w", p, err)
	}
	var run HubRun
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, fmt.Errorf("storage: parse %s: %w", p, err)
	}
	if run.Version != 1 || run.ID != id {
		return nil, fmt.Errorf("storage: %s: invalid registry entry %+v", p, run)
	}
	return &run, nil
}

// RemoveHubRun deletes one run's registry entry (no-op when absent).
func RemoveHubRun(b Backend, hubRoot, id string) error {
	p := hubRunPath(hubRoot, id)
	if !b.Exists(p) {
		return nil
	}
	return b.Remove(p)
}

// ListHubRuns returns every attached run's registry entry, sorted by ID.
// A malformed entry is an error, not a skip: a sweep that cannot see every
// attached run must not run at all — under-pinning is the one unforgivable
// failure in a shared store.
func ListHubRuns(b Backend, hubRoot string) ([]HubRun, error) {
	dir := strings.TrimSuffix(hubRoot, "/") + "/" + HubRunsDirName
	if !b.Exists(dir) {
		return nil, nil
	}
	names, err := b.List(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list hub registry %s: %w", dir, err)
	}
	var out []HubRun
	for _, n := range names {
		if strings.HasSuffix(n, "/") || !strings.HasSuffix(n, ".json") {
			continue
		}
		run, err := ReadHubRun(b, hubRoot, strings.TrimSuffix(n, ".json"))
		if err != nil {
			return nil, err
		}
		if run != nil {
			out = append(out, *run)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
