// Package study provides the crash-safe checkpoint/resume layer and the
// one driver shared by every optimizer in this repository (round-robin
// AEDB-MLS, NSGA-II, SPEA2, CellDE).
//
// Run is the driver. An optimizer supplies an Algorithm — its name and
// fingerprint, a fresh Init, Restore and Encode of its own checkpoint
// fields, one Step (a generation, a sweep or a round), whether budget is
// left, and its progress and front — and Run owns everything around it:
// the resume check, the boundary/stop protocol, the Final checkpoint and
// the one Result. The Options every optimizer config embeds
// (Checkpoint, Resume, Stop) are declared here once.
//
// A Checkpoint captures everything a bit-identical resume needs: the
// optimizer's RNG state(s), its iteration/evaluation counters, its
// population/grid/worker state, the elite archive contents in internal
// order, and a fingerprint of the algorithm + problem configuration so a
// resume can refuse to continue a different study (or one whose evaluation
// caches would be incompatible). Floats are serialized as hex strings
// (see F64), so a decode restores the exact bits the optimizer held.
//
// Save is atomic: the checkpoint is written to a temporary file in the
// destination directory, fsynced, renamed over the target, and the
// directory is fsynced. A crash at any point leaves either the previous
// checkpoint or the new one, never a torn file; Load additionally verifies
// a schema version and a SHA-256 payload checksum, so a torn or corrupted
// file is refused rather than half-loaded.
//
// Every boundary Run checkpoints is a completed iteration, so resuming
// replays the remaining iterations through the same RNG stream and
// produces the same final archive, bit for bit.
package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aedbmls/internal/faultinject"
	"aedbmls/internal/moo"
)

// Schema is the checkpoint format version. Load refuses any other value;
// bump it when the Checkpoint layout changes incompatibly.
const Schema = 1

// ErrStop is returned by a Controller's AfterSave hook (or wrapped by
// Save) to request a clean interruption: the optimizer stops after the
// just-saved boundary and marks its result interrupted. CLIs use it for
// SIGINT/SIGTERM ("checkpoint, then exit"); tests use it to model a crash
// deterministically ("stop exactly after save #3").
var ErrStop = errors.New("study: stop requested")

// Checkpoint is the serialized state of one study. It is a union across
// the four optimizers: each populates the fields it needs (Workers for
// MLS, Population for the GAs, Grid for CellDE, Elite for SPEA2's
// environmental archive) and ignores the rest.
type Checkpoint struct {
	Schema      int    `json:"schema"`
	Algorithm   string `json:"algorithm"`
	Fingerprint string `json:"fingerprint"`
	// Final marks the checkpoint written at successful completion. Resuming
	// a Final checkpoint short-circuits straight to result assembly —
	// re-running even one loop head (e.g. SPEA2's environmental selection)
	// on final state would change it.
	Final       bool             `json:"final,omitempty"`
	Evaluations int64            `json:"evaluations"`
	Iteration   int64            `json:"iteration,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	RNG         RNGState         `json:"rng"`
	ExtraRNGs   []RNGState       `json:"extra_rngs,omitempty"`
	Archive     *ArchiveState    `json:"archive,omitempty"`
	Population  []Solution       `json:"population,omitempty"`
	Elite       []Solution       `json:"elite,omitempty"`
	Grid        []Solution       `json:"grid,omitempty"`
	Workers     []WorkerState    `json:"workers,omitempty"`
	Checksum    string           `json:"checksum"`
}

// Check validates that a loaded checkpoint belongs to this study: same
// algorithm, same config/problem fingerprint. An empty expected
// fingerprint skips that half of the check.
func (cp *Checkpoint) Check(algorithm, fingerprint string) error {
	if cp.Algorithm != algorithm {
		return fmt.Errorf("study: checkpoint is for algorithm %q, not %q", cp.Algorithm, algorithm)
	}
	if fingerprint != "" && cp.Fingerprint != fingerprint {
		return fmt.Errorf("study: checkpoint fingerprint %.12s… does not match study %.12s… (different config or problem)", cp.Fingerprint, fingerprint)
	}
	return nil
}

// Counter returns a named algorithm-specific counter (0 when absent).
func (cp *Checkpoint) Counter(name string) int64 { return cp.Counters[name] }

// checksum computes the SHA-256 of the checkpoint's canonical compact JSON
// with the Checksum field empty. Marshalling is deterministic: struct
// field order is fixed, F64 uses one canonical spelling per value, and
// encoding/json sorts map keys.
func checksum(cp *Checkpoint) (string, error) {
	saved := cp.Checksum
	cp.Checksum = ""
	data, err := json.Marshal(cp)
	cp.Checksum = saved
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Save writes the checkpoint to path atomically: temp file in the same
// directory, fsync, rename, directory fsync. The checkpoint's Schema and
// Checksum fields are filled in. A crash anywhere in the sequence leaves
// the previous file intact (the faultinject site sits in the window
// between data write and rename, where the kill/resume tests crash it).
func Save(path string, cp *Checkpoint) error {
	cp.Schema = Schema
	sum, err := checksum(cp)
	if err != nil {
		return fmt.Errorf("study: encode checkpoint: %v", err)
	}
	cp.Checksum = sum
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return fmt.Errorf("study: encode checkpoint: %v", err)
	}
	data = append(data, '\n')
	return atomicWrite(path, data, faultinject.SiteStudySave, "checkpoint")
}

// atomicWrite is the shared crash-safe publication sequence used by
// checkpoint and manifest saves: temp file in the destination directory,
// fsync, rename over the target, directory fsync. site is planted in the
// window between data write and rename — the spot the kill/resume tests
// crash in — and what names the artifact in error messages.
func atomicWrite(path string, data []byte, site faultinject.Site, what string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("study: %s temp file: %v", what, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("study: write %s: %v", what, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("study: sync %s: %v", what, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("study: close %s: %v", what, err))
	}
	if err := faultinject.Do(site); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("study: publish %s: %v", what, err)
	}
	// Persist the rename itself. Failure here is not fatal to atomicity
	// (the rename is already on disk or not as a unit); report it anyway.
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return fmt.Errorf("study: sync %s directory: %v", what, serr)
		}
	}
	return nil
}

// Load reads and validates a checkpoint: strict JSON (unknown fields and
// trailing data refused), schema version match, checksum match. A
// truncated, torn, or hand-edited file fails here instead of resuming a
// half-loaded study.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode validates checkpoint bytes (see Load).
func Decode(data []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("study: corrupt checkpoint: %v", err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err == nil || !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("study: corrupt checkpoint: trailing data")
	}
	if cp.Schema != Schema {
		return nil, fmt.Errorf("study: checkpoint schema %d, this binary reads %d", cp.Schema, Schema)
	}
	if cp.Checksum == "" {
		return nil, fmt.Errorf("study: checkpoint missing checksum")
	}
	sum, err := checksum(cp)
	if err != nil {
		return nil, err
	}
	if sum != cp.Checksum {
		return nil, fmt.Errorf("study: checkpoint checksum mismatch (file corrupt or hand-edited)")
	}
	return cp, nil
}

// Controller drives checkpointing from inside an optimizer loop. The
// optimizer calls Due at each boundary and Save when due (or when
// stopping); a nil *Controller disables checkpointing entirely.
type Controller struct {
	// Path is the checkpoint file.
	Path string
	// Every is the checkpoint cadence in evaluations; <= 0 saves only on
	// stop and completion.
	Every int64
	// AfterSave, when set, runs after each successful Save. Returning an
	// error (conventionally ErrStop) makes Save return it, which optimizers
	// treat as a stop request at the just-saved boundary. Tests use this to
	// interrupt a run at a deterministic point.
	AfterSave func(*Checkpoint) error

	lastSaved int64
	saves     int64
}

// Due reports whether the cadence calls for a checkpoint at evals.
func (c *Controller) Due(evals int64) bool {
	if c == nil || c.Path == "" {
		return false
	}
	return c.Every > 0 && evals-c.lastSaved >= c.Every
}

// Enabled reports whether the controller can save at all.
func (c *Controller) Enabled() bool { return c != nil && c.Path != "" }

// Save persists the checkpoint and runs AfterSave. The returned error is
// ErrStop (possibly wrapped) when the hook requested interruption.
func (c *Controller) Save(cp *Checkpoint) error {
	if !c.Enabled() {
		return nil
	}
	if err := Save(c.Path, cp); err != nil {
		return err
	}
	c.lastSaved = cp.Evaluations
	c.saves++
	if c.AfterSave != nil {
		return c.AfterSave(cp)
	}
	return nil
}

// Saves returns how many checkpoints this controller has written.
func (c *Controller) Saves() int64 {
	if c == nil {
		return 0
	}
	return c.saves
}

// Fingerprint hashes an ordered list of identity strings into a stable
// hex digest. Each part is length-prefixed so ("ab","c") and ("a","bc")
// differ. Optimizers combine their algorithm-config identity with the
// eval problem fingerprint; perf-only knobs (worker counts, cache
// sharing) are deliberately excluded so a resume may change parallelism.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stopped reports whether a stop channel has been closed (nil channel:
// never). Optimizers poll it at loop boundaries.
func Stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// ProblemFingerprint derives the problem half of a study fingerprint:
// problems exposing their own Fingerprint (eval.Problem does) are asked;
// anything else is identified by name, dimensions and bounds.
func ProblemFingerprint(p moo.Problem) string {
	if fp, ok := p.(interface{ Fingerprint() string }); ok {
		return fp.Fingerprint()
	}
	lo, hi := p.Bounds()
	return fmt.Sprintf("problem=%s dim=%d obj=%d lo=%v hi=%v",
		p.Name(), p.Dim(), p.NumObjectives(), lo, hi)
}
