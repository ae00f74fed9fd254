package study

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadManifest feeds arbitrary bytes to LoadManifest through a file,
// the way a restarting server reads its checkpoint directory: it must
// never panic, and a manifest it accepts must save and load back equal.
// The seed corpus (testdata/fuzz/FuzzLoadManifest) holds a valid
// manifest, a truncation, an unknown field, trailing data and a flipped
// byte.
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), ManifestFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		if err := SaveManifest(path, m); err != nil {
			t.Fatalf("saving a loaded manifest: %v", err)
		}
		back, err := LoadManifest(path)
		if err != nil {
			t.Fatalf("reloading a saved manifest: %v", err)
		}
		// The checksum's own encoding is the manifest's canonical form:
		// it compacts the raw spec bytes the indented file re-indents.
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("manifest changed across save and load:\n got %s\nwant %s", got, want)
		}
	})
}
